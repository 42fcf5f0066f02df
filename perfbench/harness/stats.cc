#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/// 1-based nearest rank ceil(q * n), with a tolerance so that products
/// such as 0.99 * 1000 land on the exact rank despite rounding.
size_t NearestRank(size_t n, double q) {
  const double exact = q * static_cast<double>(n);
  return static_cast<size_t>(std::ceil(exact - 1e-9));
}

}  // namespace

double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const size_t n = sorted.size();
  const size_t rank = std::clamp<size_t>(NearestRank(n, q), 1, n);
  return sorted[rank - 1];
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return SortedQuantile(samples, 0.5);
}

size_t SamplesBeyond(size_t n, double pct) {
  const size_t rank = NearestRank(n, pct / 100.0);
  return n > rank ? n - rank : 0;
}

double TailPercentile(size_t n) {
  static constexpr double kLadder[] = {99.99, 99.9, 99, 90, 50};
  for (double pct : kLadder) {
    if (SamplesBeyond(n, pct) >= 10) return pct;
  }
  return 0;
}

Summary Summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Summary s;
  s.n = samples.size();
  s.p50 = SortedQuantile(samples, 0.5);
  s.tail_pct = TailPercentile(s.n);
  if (s.tail_pct > 0) s.tail = SortedQuantile(samples, s.tail_pct / 100.0);
  return s;
}

void RoundSeries::Add(double sample) {
  if (rounds_.empty()) StartRound();
  rounds_.back().push_back(sample);
}

std::vector<double> RoundSeries::All() const {
  std::vector<double> all;
  for (const auto& round : rounds_) {
    all.insert(all.end(), round.begin(), round.end());
  }
  return all;
}

std::vector<double> RoundSeries::RoundMedians() const {
  std::vector<double> medians;
  for (const auto& round : rounds_) {
    if (!round.empty()) medians.push_back(Median(round));
  }
  return medians;
}

size_t RoundSeries::count() const {
  size_t n = 0;
  for (const auto& round : rounds_) n += round.size();
  return n;
}

double RoundSeries::BusyQuartile(bool higher_is_better) const {
  std::vector<double> medians = RoundMedians();
  std::sort(medians.begin(), medians.end());
  return SortedQuantile(medians, higher_is_better ? 0.25 : 0.75);
}

double Geomean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double QError(double estimated, double actual) {
  const double e = std::max(estimated, 1.0);
  const double a = std::max(actual, 1.0);
  return std::max(e / a, a / e);
}

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t SplitMix64::Uniform(uint64_t bound) {
  return bound == 0 ? 0 : Next() % bound;
}

double SplitMix64::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

ZipfSampler::ZipfSampler(size_t n, double s) {
  cdf_.reserve(n);
  double total = 0;
  for (size_t k = 1; k <= n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Draw(SplitMix64* rng) const {
  if (cdf_.empty()) return 0;
  const double u = rng->NextDouble();
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

}  // namespace perfbench
