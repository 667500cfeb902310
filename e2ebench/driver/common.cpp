// Helpers shared by the workloads: JSON rendering, the host block, metric
// snapshot deltas, and the per-layer metric catalogue.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>

#include "util/simd.hpp"
#include "workload.hpp"

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif
#ifndef E2EBENCH_COMPILER
#define E2EBENCH_COMPILER "unknown"
#endif

namespace e2ebench {

namespace obs = gaplan::obs;

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_quantiles(const Quantiles& q) {
  return "{\"n\": " + std::to_string(q.n) + ", \"p50\": " + json_num(q.p50) +
         ", \"q\": " + json_num(q.tail_q) + ", \"tail\": " + json_num(q.tail) +
         "}";
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string json_host() {
  const char* sha = std::getenv("E2EBENCH_SOURCE_SHA");
  return "{\"cpu\": " + json_str(cpu_model()) +
         ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"avx512\": " +
         (gaplan::util::has_avx512_decode() ? "true" : "false") +
         ", \"build_type\": " + json_str(E2EBENCH_BUILD_TYPE) +
         ", \"compiler\": " + json_str(E2EBENCH_COMPILER) +
         ", \"git_sha\": " + json_str(sha ? sha : "unknown") + "}";
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t counter_delta(const obs::MetricsSnapshot& before,
                            const obs::MetricsSnapshot& after,
                            const std::string& name) {
  const auto* a = after.find_counter(name);
  const auto* b = before.find_counter(name);
  const std::uint64_t av = a ? a->value : 0;
  const std::uint64_t bv = b ? b->value : 0;
  return av >= bv ? av - bv : 0;
}

obs::HistogramSample histogram_delta(const obs::MetricsSnapshot& before,
                                     const obs::MetricsSnapshot& after,
                                     const std::string& name) {
  obs::HistogramSample out;
  const auto* a = after.find_histogram(name);
  if (!a) return out;
  out = *a;
  if (const auto* b = before.find_histogram(name)) {
    for (std::size_t i = 0; i < out.counts.size() && i < b->counts.size(); ++i) {
      out.counts[i] -= b->counts[i];
    }
    out.count -= b->count;
    out.sum -= b->sum;
  }
  return out;
}

void core_layer_metrics(Outcome& out, const MetricDelta& counter,
                        const MetricDelta& histogram_sum) {
  const double eval_ms = histogram_sum("ga.eval_ms");
  const double evaluations = counter("ga.evaluations");
  out.layer("core.eval_ms", eval_ms, "ms");
  out.layer("core.reproduce_ms", histogram_sum("ga.reproduce_ms"), "ms");
  out.layer("core.evaluations", evaluations, "count");
  out.layer("core.ops_decoded", counter("eval.ops_decoded"), "count");
  out.layer("core.resume_genes_skipped", counter("eval.resume_genes_skipped"),
            "count");
  out.layer("core.evals_per_s",
            eval_ms > 0.0 ? evaluations / (eval_ms / 1000.0) : 0.0, "1/s");
  const double batches = counter("eval.batches");
  out.layer("core.simd_lane_frac",
            batches > 0.0 ? counter("eval.simd_lanes_used") / (8.0 * batches)
                          : 0.0,
            "frac");
  const double hits = counter("eval.cache_hits");
  const double lookups = hits + counter("eval.cache_misses");
  out.layer("core.eval_cache_hit_rate", lookups > 0.0 ? hits / lookups : 0.0,
            "frac");
}

void core_layer_metrics(Outcome& out, const obs::MetricsSnapshot& before,
                        const obs::MetricsSnapshot& after) {
  core_layer_metrics(
      out,
      [&](const std::string& name) {
        return static_cast<double>(counter_delta(before, after, name));
      },
      [&](const std::string& name) {
        return histogram_delta(before, after, name).sum;
      });
}

std::string json_span_totals(const std::vector<Span>& spans,
                             const std::string& key) {
  std::string out = json_str(key) + ": {";
  bool first = true;
  for (const auto& [name, t] : span_totals(spans)) {
    if (!first) out += ", ";
    first = false;
    out += json_str(name) + ": {\"count\": " + std::to_string(t.count) +
           ", \"total_ms\": " + json_num(t.total_ms) +
           ", \"self_ms\": " + json_num(t.self_ms) + "}";
  }
  return out + "}";
}

namespace {

/// Every per-layer metric the benchmark declares, with its unit.
const std::vector<std::pair<const char*, const char*>>& layer_catalogue() {
  static const std::vector<std::pair<const char*, const char*>> names = {
      {"core.eval_ms", "ms"},
      {"core.reproduce_ms", "ms"},
      {"core.evaluations", "count"},
      {"core.ops_decoded", "count"},
      {"core.resume_genes_skipped", "count"},
      {"core.evals_per_s", "1/s"},
      {"core.simd_lane_frac", "frac"},
      {"core.eval_cache_hit_rate", "frac"},
      {"job.hanoi_ms", "ms"},
      {"job.tiles_ms", "ms"},
      {"job.sokoban_ms", "ms"},
      {"job.crowding_ms", "ms"},
      {"job.direct_ms", "ms"},
      {"job.islands_ms", "ms"},
      {"job.grid_ms", "ms"},
      {"grid.replans", "count"},
      {"server.submit_us.p50", "us"},
      {"server.submit_us.p99", "us"},
      {"server.cache_hit_rate", "frac"},
      {"server.queue_wait_ms.p50", "ms"},
      {"server.queue_wait_ms.p99", "ms"},
      {"server.plan_ms.p50", "ms"},
      {"server.plan_ms.p99", "ms"},
      {"server.other_ms", "ms"},
      {"server.yields", "count"},
      {"server.queue_depth_max", "count"},
      {"server.rejected", "count"},
      {"dist.ping_us", "us"},
      {"dist.submit_ms.p50", "ms"},
      {"dist.submit_ms.p99", "ms"},
      {"dist.hit_rate", "frac"},
      {"dist.fanout_hit_share", "frac"},
      {"dist.retries", "count"},
      {"dist.worker_queue_wait_ms.p99", "ms"},
      {"dist.worker_slice_ms.p50", "ms"},
      {"dist.load_imbalance", "ratio"},
      {"dist.island_runs", "count"},
      {"dist.island_restarts", "count"},
      {"dist.lat_p50_ms", "ms"},
      {"dist.lat_p99_ms", "ms"},
      {"island_lat_p50_ms", "ms"},
      {"lat_p99_ms", "ms"},
      {"max_rate_rps", "1/s"},
      {"gen.send_lag_p99_ms", "ms"},
      {"trace.overhead_frac", "frac"},
      {"fail_frac", "frac"},
  };
  return names;
}

}  // namespace

void fill_absent_layers(Outcome& out, const std::string& why) {
  for (const auto& [name, unit] : layer_catalogue()) {
    if (out.per_layer.count(name)) continue;
    out.layer(name, 0.0, unit);
    out.absent.emplace(name, why);
  }
}

}  // namespace e2ebench
