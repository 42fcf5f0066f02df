/// \file selftest.cc
/// \brief Tests of the benchmark's own helpers: the percentile rule, the
/// seeded Zipf sampler, and span self-time arithmetic.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

TEST(PercentileRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(19), 0);      // even the median has 9 beyond
  EXPECT_EQ(TailPercentile(20), 50);     // 10 beyond the median
  EXPECT_EQ(TailPercentile(99), 50);     // 9 beyond p90
  EXPECT_EQ(TailPercentile(100), 90);
  EXPECT_EQ(TailPercentile(999), 90);    // 9 beyond p99
  EXPECT_EQ(TailPercentile(1000), 99);
  EXPECT_EQ(TailPercentile(9999), 99);
  EXPECT_EQ(TailPercentile(10000), 99.9);
  EXPECT_EQ(TailPercentile(100000), 99.99);
}

TEST(PercentileRule, SamplesBeyondAndNearestRank) {
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SamplesBeyond(10000, 99.9), 10u);
  EXPECT_EQ(SamplesBeyond(5, 50), 2u);  // rank ceil(2.5) = 3

  std::vector<double> v(1000);
  std::iota(v.begin(), v.end(), 1.0);   // 1..1000
  EXPECT_EQ(SortedQuantile(v, 0.5), 500);
  EXPECT_EQ(SortedQuantile(v, 0.99), 990);
  EXPECT_EQ(SortedQuantile(v, 1.0), 1000);
  EXPECT_EQ(SortedQuantile(v, 0.0), 1);

  Summary s = Summarize({5, 1, 4, 2, 3});
  EXPECT_EQ(s.n, 5u);
  EXPECT_EQ(s.p50, 3);
  EXPECT_EQ(s.tail_pct, 0);  // too few samples for any percentile
}

TEST(RoundSeries, BusyQuartileOfRoundMedians) {
  RoundSeries series;
  // Round medians 40, 10, 30, 20 (the empty round is skipped).
  const std::vector<std::vector<double>> rounds = {
      {40, 41, 39}, {}, {10, 100, 9}, {30}, {20, 21}};
  for (const auto& round : rounds) {
    series.StartRound();
    for (double v : round) series.Add(v);
  }
  EXPECT_EQ(series.count(), 9u);
  EXPECT_EQ(series.All().size(), 9u);
  EXPECT_EQ(series.RoundMedians(), (std::vector<double>{40, 10, 30, 20}));
  EXPECT_EQ(series.BusyQuartile(), 30);      // rank ceil(0.75 * 4) = 3
  EXPECT_EQ(series.BusyQuartile(true), 10);  // rank ceil(0.25 * 4) = 1
  EXPECT_EQ(RoundSeries().BusyQuartile(), 0);
}

TEST(RoundSeries, BusyQuartileIgnoresAQuietMinority) {
  // 30 rounds on a busy plateau of 24-26 with quiet rounds of 15: the
  // quartile stays on the plateau while the quiet rounds are under a
  // quarter of the run.
  for (int quiet : {0, 3, 7}) {
    RoundSeries series;
    for (int r = 0; r < 30; ++r) {
      series.StartRound();
      series.Add(r < quiet ? 15 : 24 + r % 3);
    }
    EXPECT_GE(series.BusyQuartile(), 24) << quiet;
  }
}

TEST(ZipfSampler, SameSeedSameDraws) {
  ZipfSampler zipf(1000, 1.0);
  SplitMix64 a(42), b(42), c(43);
  std::vector<size_t> da, db, dc;
  for (int i = 0; i < 1000; ++i) {
    da.push_back(zipf.Draw(&a));
    db.push_back(zipf.Draw(&b));
    dc.push_back(zipf.Draw(&c));
  }
  EXPECT_EQ(da, db);
  EXPECT_NE(da, dc);
}

TEST(ZipfSampler, SkewedTowardLowRanksAndInRange) {
  ZipfSampler zipf(100, 1.0);
  SplitMix64 rng(7);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) {
    size_t r = zipf.Draw(&rng);
    ASSERT_LT(r, 100u);
    ++counts[r];
  }
  // Rank 0 holds 1/H(100) ~ 19% of the mass, rank 99 about 0.2%.
  EXPECT_GT(counts[0], 3000);
  EXPECT_LT(counts[99], 200);
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[9]);
}

TEST(SpanSelfTime, ChildrenCoverageSubtractedOnce) {
  // root [0,100]: a [10,40], b [30,60] overlap by 10; c [90,120] sticks out
  // of the root by 20. Covered = [10,60] + [90,100] = 60, self = 40.
  // a has child d [15,25]: a's self = 30 - 10 = 20.
  std::vector<Span> spans = {
      {"bench.root", 1, 0, 7, 0, 100},
      {"query.a", 2, 1, 7, 10, 40},
      {"query.b", 3, 1, 7, 30, 60},
      {"xml.c", 4, 1, 7, 90, 120},
      {"pbn.d", 5, 2, 7, 15, 25},
  };
  std::vector<double> self = SelfTimesNs(spans);
  ASSERT_EQ(self.size(), 5u);
  EXPECT_EQ(self[0], 40);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 10);

  std::map<std::string, double> by_layer = SelfMsByLayer(spans);
  EXPECT_DOUBLE_EQ(by_layer["bench"], 40e-6);
  EXPECT_DOUBLE_EQ(by_layer["query"], 50e-6);
  EXPECT_DOUBLE_EQ(by_layer["xml"], 30e-6);
  EXPECT_DOUBLE_EQ(by_layer["pbn"], 10e-6);
}

TEST(SpanSelfTime, DisabledTracerRecordsNothingButStillTimes) {
  Tracer tracer;
  {
    ScopedSpan span(&tracer, "bench.x", 1);
    EXPECT_EQ(span.id(), 0u);
    EXPECT_GE(span.Stop(), 0.0);
  }
  EXPECT_TRUE(tracer.spans().empty());

  tracer.set_enabled(true);
  {
    ScopedSpan parent(&tracer, "bench.parent", 3);
    ScopedSpan child(&tracer, "query.child", 3, parent.id());
    child.Stop();
  }
  std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_STREQ(spans[0].name, "query.child");
  EXPECT_EQ(spans[0].parent, spans[1].id);
  EXPECT_EQ(spans[1].request, 3u);
}

}  // namespace
}  // namespace perfbench
