// Open-loop load generation: Poisson arrival schedules and a Zipf key
// sampler. Both are pure functions of their seed, so a benchmark seed fixes
// the exact traffic a run offers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace e2ebench {

/// Arrival offsets in seconds from the start of a window: a Poisson process
/// of rate `rate_per_s` conditioned on its expected count, so every window
/// of a given rate and length offers exactly round(rate * duration) requests
/// at exponentially spaced, seed-determined times inside [0, duration_s).
std::vector<double> poisson_schedule(double rate_per_s, double duration_s,
                                     std::uint64_t seed);

/// Samples ranks 0..n-1 with P(k) proportional to 1/(k+1)^s.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);
  std::size_t sample(gaplan::util::Rng& rng) const;
  std::size_t size() const noexcept { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace e2ebench
