#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace e2ebench {

double supported_quantile(std::size_t n, double wanted) {
  if (n < 2 * kTailSamples) return 0.5;
  const double limit = 1.0 - static_cast<double>(kTailSamples) /
                                 static_cast<double>(n);
  // Small epsilon so exact grid points (n = 1000 -> 0.99) are not lost to
  // floating-point rounding.
  const double grid = std::floor(limit * 100.0 + 1e-9) / 100.0;
  return std::max(0.5, std::min(wanted, grid));
}

double nearest_rank(const std::vector<double>& sorted, double q) {
  const double n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

Quantiles quantiles(std::vector<double> samples, double wanted_tail) {
  Quantiles out;
  out.n = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  out.p50 = nearest_rank(samples, 0.5);
  out.tail_q = supported_quantile(samples.size(), wanted_tail);
  out.tail = nearest_rank(samples, out.tail_q);
  return out;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t m = samples.size() / 2;
  return samples.size() % 2 ? samples[m] : 0.5 * (samples[m - 1] + samples[m]);
}

double hd_median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  // Order statistic i weighs the Beta(a, a) mass on [i/n, (i+1)/n], by the
  // midpoint rule; the density is taken relative to its peak at t = 1/2.
  const double a = (n + 1.0) / 2.0;
  constexpr int kSteps = 64;
  double total = 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    double w = 0.0;
    for (int k = 0; k < kSteps; ++k) {
      const double t = (static_cast<double>(i) + (k + 0.5) / kSteps) / n;
      w += std::exp((a - 1.0) * (std::log(t) + std::log1p(-t) + std::log(4.0)));
    }
    total += w;
    sum += w * samples[i];
  }
  return sum / total;
}

double quiet(std::vector<double> samples, bool lower_is_better) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return nearest_rank(samples, lower_is_better ? kQuietQ : 1.0 - kQuietQ);
}

}  // namespace e2ebench
