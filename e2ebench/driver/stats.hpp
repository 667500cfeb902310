// Sample statistics under the benchmark's percentile rule: a tail is the
// highest percentile (up to the one wanted) that still has at least ten
// samples beyond it, and every reported percentile carries its sample count.
#pragma once

#include <cstddef>
#include <vector>

namespace e2ebench {

/// Samples that must lie beyond a reported percentile.
inline constexpr std::size_t kTailSamples = 10;

/// The highest q <= wanted, on a 0.01 grid, that leaves at least
/// kTailSamples of n samples beyond it; never below 0.5 (with fewer than
/// 2 * kTailSamples samples only the median is supported).
double supported_quantile(std::size_t n, double wanted);

/// Nearest-rank value at q of a sorted, non-empty sample.
double nearest_rank(const std::vector<double>& sorted, double q);

struct Quantiles {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail_q = 0.0;  ///< the percentile `tail` reports
  double tail = 0.0;
};

/// Median and supported tail (wanted 0.99) of `samples`; all zero when empty.
Quantiles quantiles(std::vector<double> samples, double wanted_tail = 0.99);

double median(std::vector<double> samples);

/// The Harrell-Davis estimate of the median: the mean of the order
/// statistics weighted by a Beta((n+1)/2, (n+1)/2) density. Unlike the
/// sample median it moves smoothly when neighbouring values swap ranks, so
/// the centre of a set of distinct jobs with close times reads steadily;
/// 0 when empty.
double hd_median(std::vector<double> samples);

/// Share of repetitions the quiet estimate leaves faster than itself.
inline constexpr double kQuietQ = 0.2;

/// The quiet estimate of a figure measured once per repetition of the same
/// work: the nearest-rank kQuietQ value when lower is better (1 - kQuietQ
/// when higher is). Load from other tenants of the host only ever slows a
/// repetition down, so a low quantile tracks the program and not the
/// host's busiest stretches; 0 when empty.
double quiet(std::vector<double> samples, bool lower_is_better = true);

}  // namespace e2ebench
