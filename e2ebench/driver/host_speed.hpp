// Host-speed calibration. The benchmark shares its host with other tenants,
// whose load slows every core by up to ~1.5x for tens of seconds at a time:
// long enough that a whole run can fall in a slow stretch. A fixed reference
// kernel, which is no part of gaplan, is timed between the measured calls;
// each measured time is then scaled by kReferenceKernelMs over the kernel's
// median time in the same stretch. Times so scaled read as on a host where
// the kernel takes kReferenceKernelMs, whatever the stretch, while a change
// in the program moves them exactly as it moves the raw times.
#pragma once

#include <cstdint>
#include <vector>

namespace e2ebench {

/// The reference kernel's time on the quiet host the bounds were set on
/// (ms); only the unit of the scaled times depends on it.
inline constexpr double kReferenceKernelMs = 0.3;

/// Runs the reference kernel once: a fixed chain of dependent multiplies and
/// table updates over 64 KiB (core-bound, like the GA's decode and fitness
/// loops). Returns its checksum, a pure function of `seed`.
std::uint64_t reference_kernel(std::uint64_t seed);

/// Kernel timings since the last scale(), and the scale they give.
class HostSpeed {
 public:
  /// Times one run of the reference kernel.
  void sample();
  /// kReferenceKernelMs over the median sampled time (1 with no samples);
  /// clears the samples.
  double scale();

 private:
  std::vector<double> ms_;
  std::uint64_t sink_ = 0;
};

}  // namespace e2ebench
