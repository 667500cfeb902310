#include "host_speed.hpp"

#include <array>

#include "spans.hpp"
#include "stats.hpp"

namespace e2ebench {

std::uint64_t reference_kernel(std::uint64_t seed) {
  constexpr std::size_t kWords = 8192;  // 64 KiB
  constexpr std::size_t kSteps = 50000;
  std::array<std::uint64_t, kWords> table{};
  std::uint64_t x = seed | 1;
  for (std::size_t i = 0; i < kSteps; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    std::uint64_t& cell = table[(x >> 40) % kWords];
    cell += x >> 29;
    x ^= cell;
  }
  std::uint64_t sum = x;
  for (const std::uint64_t w : table) sum = sum * 31 + w;
  return sum;
}

void HostSpeed::sample() {
  const double t0 = now_ms();
  sink_ += reference_kernel(sink_ + ms_.size());
  ms_.push_back(now_ms() - t0);
}

double HostSpeed::scale() {
  const double m = median(ms_);
  ms_.clear();
  return m > 0.0 ? kReferenceKernelMs / m : 1.0;
}

}  // namespace e2ebench
