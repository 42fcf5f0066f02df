/// \file stats.h
/// \brief Sample statistics and seeded input generation for the benchmark.
///
/// Everything here is self-contained on purpose: the benchmark's own
/// random draws and percentile rules must not change when the code under
/// test changes, so they do not use the repository's `common/random.h`.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile of an ascending-sorted sample, \p q in [0, 1]:
/// the value at 1-based rank ceil(q * n), clamped to [1, n]. 0 when empty.
double SortedQuantile(const std::vector<double>& sorted, double q);

/// Median (nearest-rank 0.5 quantile) of an unsorted sample.
double Median(std::vector<double> samples);

/// Number of samples strictly beyond the nearest-rank \p pct percentile of
/// \p n samples: n - ceil(pct/100 * n).
size_t SamplesBeyond(size_t n, double pct);

/// The highest percentile of the ladder 50, 90, 99, 99.9, 99.99 that still
/// has at least 10 samples beyond it; 0 when even the median has fewer
/// (n < 20), meaning no percentile is reportable.
double TailPercentile(size_t n);

/// A timing reported the way every latency in the benchmark is: the
/// median, the highest percentile the sample supports, and the count.
struct Summary {
  size_t n = 0;
  double p50 = 0;
  double tail_pct = 0;  ///< TailPercentile(n)
  double tail = 0;      ///< value at tail_pct (0 when tail_pct is 0)
};
Summary Summarize(std::vector<double> samples);

/// Timing samples grouped by measuring round.
///
/// The machine this benchmark runs on switches between a busy and a quiet
/// state every few seconds, in step for every metric. The busy state is a
/// steady plateau that covers most of every run; the quiet one is about 1.5
/// times as fast but comes and goes, covering anything from a thirtieth to
/// half of a run. A run therefore keeps one median per round and reports
/// the quartile of those round medians on the busy side — the upper
/// quartile for a time, the lower one for a rate — which sits on the
/// plateau however much of the run the quiet state covers.
class RoundSeries {
 public:
  /// Starts a new round; later samples belong to it.
  void StartRound() { rounds_.emplace_back(); }
  void Add(double sample);

  /// Every sample of every round.
  std::vector<double> All() const;
  /// The median of each round that has samples, in round order.
  std::vector<double> RoundMedians() const;
  size_t count() const;

  /// Nearest-rank quartile of the per-round medians, skipping rounds
  /// without samples: the 0.75 quartile, or 0.25 when \p higher_is_better.
  /// 0 when no round has a sample.
  double BusyQuartile(bool higher_is_better = false) const;

 private:
  std::vector<std::vector<double>> rounds_;
};

/// Geometric mean of positive values (0 when empty).
double Geomean(const std::vector<double>& values);

/// Planner q-error: max(e/a, a/e) with both counts clamped to at least 1.
double QError(double estimated, double actual);

/// SplitMix64: the benchmark's only source of randomness.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, bound); 0 when bound is 0.
  uint64_t Uniform(uint64_t bound);
  /// Uniform in [0, 1).
  double NextDouble();

 private:
  uint64_t state_;
};

/// Zipf-distributed ranks in [0, n) with exponent \p s (rank 0 hottest),
/// drawn by binary search over a precomputed cumulative distribution.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t Draw(SplitMix64* rng) const;
  size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace perfbench
