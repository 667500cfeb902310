// The traced run's span log: spans the benchmark records around each call it
// makes into a layer, kept in memory and reduced at the end. A span's self
// time is its duration minus the part of its interval covered by its child
// spans, so a parent's self time is work no child accounts for.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2ebench {

/// Milliseconds on the steady clock (a common origin for every span).
double now_ms();

/// Sleeps until steady-clock time `t_ms`, spinning through the last 0.3 ms
/// so an arrival is sent within microseconds of when it is due.
void sleep_until_ms(double t_ms);

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const noexcept { return enabled_; }
  /// A fresh span id (ids are taken when a span opens, so children can name
  /// a parent that has not finished yet); 0 when disabled.
  std::uint64_t open() noexcept { return enabled_ ? ++next_id_ : 0; }
  /// Stores a finished span; a no-op when disabled or id is 0.
  void close(std::uint64_t id, std::uint64_t parent, std::string name,
             double start_ms, double end_ms);
  std::vector<Span> spans() const;

 private:
  const bool enabled_;
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Self time of `span`: its duration minus the union of its children's
/// intervals clipped to its own.
double self_time_ms(const Span& span, const std::vector<const Span*>& children);

struct SpanTotals {
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// Per-name count, summed duration and summed self time.
std::map<std::string, SpanTotals> span_totals(const std::vector<Span>& spans);

}  // namespace e2ebench
