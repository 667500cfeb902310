// Unit tests of the benchmark's own machinery: the percentile rule, seed
// determinism of the load generator, self time from spans, and the
// host-speed reference kernel.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "host_speed.hpp"
#include "load.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace e2ebench {
namespace {

std::size_t beyond(const std::vector<double>& sorted, double value) {
  std::size_t n = 0;
  for (const double v : sorted) n += v > value ? 1 : 0;
  return n;
}

std::vector<double> iota_sample(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(PercentileRule, P99NeedsAThousandSamples) {
  EXPECT_DOUBLE_EQ(supported_quantile(1000, 0.99), 0.99);
  EXPECT_DOUBLE_EQ(supported_quantile(999, 0.99), 0.98);
  EXPECT_DOUBLE_EQ(supported_quantile(100, 0.99), 0.90);
  EXPECT_DOUBLE_EQ(supported_quantile(5000, 0.99), 0.99);
}

TEST(PercentileRule, FallsBackToTheMedianOnTinySamples) {
  EXPECT_DOUBLE_EQ(supported_quantile(19, 0.99), 0.5);
  EXPECT_DOUBLE_EQ(supported_quantile(0, 0.99), 0.5);
  EXPECT_DOUBLE_EQ(supported_quantile(20, 0.99), 0.5);
  EXPECT_DOUBLE_EQ(supported_quantile(25, 0.99), 0.6);
}

TEST(PercentileRule, ReportedTailAlwaysLeavesTenSamplesBeyond) {
  for (const std::size_t n : {20u, 21u, 37u, 100u, 101u, 333u, 999u, 1000u,
                              1001u, 4321u}) {
    const auto sample = iota_sample(n);
    const Quantiles q = quantiles(sample);
    EXPECT_EQ(q.n, n);
    EXPECT_GE(beyond(sample, q.tail), kTailSamples) << "n=" << n;
    // ...and it is the highest grid percentile that does.
    const double next = q.tail_q + 0.01;
    if (q.tail_q < 0.99 && next <= 1.0 - 10.0 / static_cast<double>(n)) {
      ADD_FAILURE() << "a higher percentile was supported at n=" << n;
    }
  }
}

TEST(PercentileRule, MedianAndTailOfKnownSample) {
  const Quantiles q = quantiles(iota_sample(1000));
  EXPECT_DOUBLE_EQ(q.p50, 500.0);
  EXPECT_DOUBLE_EQ(q.tail_q, 0.99);
  EXPECT_DOUBLE_EQ(q.tail, 990.0);
  EXPECT_EQ(quantiles({}).n, 0u);
}

TEST(QuietEstimate, LowQuantileForTimesHighForRates) {
  // 20 repetitions: the 4th fastest time, the 4th highest rate.
  EXPECT_DOUBLE_EQ(quiet(iota_sample(20)), 4.0);
  EXPECT_DOUBLE_EQ(quiet(iota_sample(20), /*lower_is_better=*/false), 16.0);
  // A few slowed repetitions do not move it.
  std::vector<double> slowed = iota_sample(20);
  for (std::size_t i = 10; i < 20; ++i) slowed[i] *= 3.0;
  EXPECT_DOUBLE_EQ(quiet(slowed), 4.0);
  EXPECT_DOUBLE_EQ(quiet({}), 0.0);
}

TEST(HarrellDavisMedian, CentreOfConstantAndSymmetricSamples) {
  EXPECT_DOUBLE_EQ(hd_median({}), 0.0);
  EXPECT_DOUBLE_EQ(hd_median({7.0}), 7.0);
  EXPECT_NEAR(hd_median(std::vector<double>(9, 3.5)), 3.5, 1e-12);
  EXPECT_NEAR(hd_median(iota_sample(84)), 42.5, 1e-9);
  EXPECT_NEAR(hd_median(iota_sample(1001)), 501.0, 1e-9);
}

TEST(HarrellDavisMedian, MovesLessThanTheMiddleValueWhenItShifts) {
  std::vector<double> v = iota_sample(85);
  const double before = hd_median(v);
  v[42] += 0.9;  // the sample median, 43, moves by the full 0.9
  const double after = hd_median(v);
  EXPECT_GT(after, before);
  EXPECT_LT(after - before, 0.2);
}

TEST(LoadGenerator, PoissonScheduleIsAFunctionOfTheSeed) {
  const auto a = poisson_schedule(200.0, 5.0, 42);
  const auto b = poisson_schedule(200.0, 5.0, 42);
  const auto c = poisson_schedule(200.0, 5.0, 43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_GT(a[i], a[i - 1]);
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 5.0);
  EXPECT_EQ(a.size(), 1000u);
  // Gaps are exponential: mean 1/rate, and about e^-1 of them exceed it.
  std::size_t long_gaps = 0;
  for (std::size_t i = 1; i < a.size(); ++i) {
    long_gaps += a[i] - a[i - 1] > 1.0 / 200.0 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(long_gaps) / 999.0, std::exp(-1.0), 0.05);
}

TEST(LoadGenerator, ZipfSamplerIsAFunctionOfTheSeedAndSkewed) {
  const ZipfSampler zipf(64, 1.0);
  const auto draw = [&](std::uint64_t seed) {
    gaplan::util::Rng rng(seed);
    std::vector<std::size_t> keys(4000);
    for (auto& k : keys) k = zipf.sample(rng);
    return keys;
  };
  const auto a = draw(7);
  EXPECT_EQ(a, draw(7));
  EXPECT_NE(a, draw(8));
  std::vector<std::size_t> counts(64, 0);
  for (const auto k : a) {
    ASSERT_LT(k, 64u);
    ++counts[k];
  }
  // P(rank 0) = 1 / H_64 ~ 0.21; rank 0 must dominate the tail ranks.
  EXPECT_NEAR(static_cast<double>(counts[0]) / 4000.0, 0.21, 0.03);
  EXPECT_GT(counts[0], 10 * counts[63] + 1);
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  const Span parent{1, 0, "request", 0.0, 100.0};
  const Span a{2, 1, "submit", 10.0, 30.0};
  const Span b{3, 1, "wait", 20.0, 50.0};   // overlaps a
  const Span c{4, 1, "wait", 90.0, 120.0};  // runs past the parent's end
  EXPECT_DOUBLE_EQ(self_time_ms(parent, {&a, &b, &c}), 100.0 - 40.0 - 10.0);
  EXPECT_DOUBLE_EQ(self_time_ms(parent, {}), 100.0);
}

TEST(SelfTime, TotalsPerNameFromALog) {
  SpanLog log(true);
  const auto root = log.open();
  const auto child = log.open();
  const auto grandchild = log.open();
  log.close(grandchild, child, "decode", 12.0, 14.0);
  log.close(child, root, "run", 10.0, 20.0);
  log.close(root, 0, "job", 0.0, 25.0);
  const auto totals = span_totals(log.spans());
  EXPECT_DOUBLE_EQ(totals.at("job").self_ms, 15.0);
  EXPECT_DOUBLE_EQ(totals.at("run").self_ms, 8.0);
  EXPECT_DOUBLE_EQ(totals.at("decode").self_ms, 2.0);
  EXPECT_DOUBLE_EQ(totals.at("run").total_ms, 10.0);
  EXPECT_EQ(totals.at("job").count, 1u);
}

TEST(SelfTime, DisabledLogRecordsNothing) {
  SpanLog log(false);
  const auto id = log.open();
  EXPECT_EQ(id, 0u);
  log.close(id, 0, "job", 0.0, 1.0);
  EXPECT_TRUE(log.spans().empty());
}

TEST(HostSpeed, KernelIsAPureFunctionOfItsSeed) {
  EXPECT_EQ(reference_kernel(5), reference_kernel(5));
  EXPECT_NE(reference_kernel(5), reference_kernel(6));
}

TEST(HostSpeed, ScaleIsReferenceOverMedianAndClears) {
  HostSpeed speed;
  EXPECT_DOUBLE_EQ(speed.scale(), 1.0);
  for (int i = 0; i < 5; ++i) speed.sample();
  const double k = speed.scale();
  EXPECT_GT(k, 0.0);
  EXPECT_DOUBLE_EQ(speed.scale(), 1.0);  // no samples left
}

}  // namespace
}  // namespace e2ebench
