#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <unordered_map>
#include <utility>

namespace e2ebench {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_until_ms(double t_ms) {
  const double coarse = t_ms - 0.3;
  const double now = now_ms();
  if (coarse > now) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(coarse - now));
  }
  while (now_ms() < t_ms) {
  }
}

void SpanLog::close(std::uint64_t id, std::uint64_t parent, std::string name,
                    double start_ms, double end_ms) {
  if (!enabled_ || id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{id, parent, std::move(name), start_ms, end_ms});
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

double self_time_ms(const Span& span, const std::vector<const Span*>& children) {
  std::vector<std::pair<double, double>> cover;
  cover.reserve(children.size());
  for (const Span* c : children) {
    const double lo = std::max(c->start_ms, span.start_ms);
    const double hi = std::min(c->end_ms, span.end_ms);
    if (hi > lo) cover.emplace_back(lo, hi);
  }
  std::sort(cover.begin(), cover.end());
  double covered = 0.0;
  double run_lo = 0.0;
  double run_hi = 0.0;
  bool open = false;
  for (const auto& [lo, hi] : cover) {
    if (open && lo <= run_hi) {
      run_hi = std::max(run_hi, hi);
      continue;
    }
    if (open) covered += run_hi - run_lo;
    run_lo = lo;
    run_hi = hi;
    open = true;
  }
  if (open) covered += run_hi - run_lo;
  return std::max(0.0, (span.end_ms - span.start_ms) - covered);
}

std::map<std::string, SpanTotals> span_totals(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  static const std::vector<const Span*> kNone;
  std::map<std::string, SpanTotals> out;
  for (const Span& s : spans) {
    const auto it = children.find(s.id);
    SpanTotals& t = out[s.name];
    ++t.count;
    t.total_ms += s.end_ms - s.start_ms;
    t.self_ms += self_time_ms(s, it == children.end() ? kNone : it->second);
  }
  return out;
}

}  // namespace e2ebench
