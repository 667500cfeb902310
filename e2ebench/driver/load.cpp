#include "load.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace e2ebench {

std::vector<double> poisson_schedule(double rate_per_s, double duration_s,
                                     std::uint64_t seed) {
  if (rate_per_s <= 0.0 || duration_s <= 0.0) {
    throw std::invalid_argument("poisson_schedule: rate and duration must be > 0");
  }
  // Given its count, a Poisson process's arrival times are uniform order
  // statistics: normalised partial sums of n + 1 exponential gaps.
  const auto n = static_cast<std::size_t>(std::lround(rate_per_s * duration_s));
  gaplan::util::Rng rng(seed);
  std::vector<double> out(n);
  double t = 0.0;
  for (double& x : out) {
    t += -std::log1p(-rng.uniform());
    x = t;
  }
  t += -std::log1p(-rng.uniform());
  for (double& x : out) x *= duration_s / t;
  return out;
}

ZipfSampler::ZipfSampler(std::size_t n, double s) {
  if (n == 0) throw std::invalid_argument("ZipfSampler: n must be > 0");
  cdf_.resize(n);
  double sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = sum;
  }
  for (double& c : cdf_) c /= sum;
  cdf_.back() = 1.0;
}

std::size_t ZipfSampler::sample(gaplan::util::Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

}  // namespace e2ebench
