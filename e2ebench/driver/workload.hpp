// Shared types of the three workloads: run options in, measurements out.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace e2ebench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Latency limit behind slo_frac and max_rate_rps (ms).
  double slo_ms = 0.0;
  /// Directory holding the gaplan_router and gaplan_worker binaries.
  std::string bin_dir;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// One workload run. `end_to_end` and `per_layer` hold every metric the
/// benchmark declares (a layer the workload does not exercise reads 0 and
/// is named in `absent`); `report` carries the detail behind them (sample
/// counts, per-class tables, span totals) as a JSON object body.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::map<std::string, std::string> absent;
  std::vector<std::string> report;  ///< "\"key\": <json>" members

  void e2e(const std::string& name, double v, const char* unit) {
    end_to_end[name] = Metric{v, unit};
  }
  void layer(const std::string& name, double v, const char* unit) {
    per_layer[name] = Metric{v, unit};
  }
  void fail_check(std::string what) {
    ++failed;
    check_failures.push_back(std::move(what));
  }
};

Outcome run_offline(const Options& opt);
Outcome run_serve(const Options& opt);
/// The dist layer, measured in the serve workload's traced run: the same
/// traffic through gaplan_router and two gaplan_worker processes. Adds the
/// dist.* and island_lat_p50_ms layer metrics, its requests (attempted,
/// failed) and its output checks to `out`.
void run_cluster_layers(const Options& opt, Outcome& out);

// --- helpers shared by the workloads (common.cpp) -----------------------

/// JSON number with every digit that matters (%.17g; non-finite -> null).
std::string json_num(double v);
std::string json_str(const std::string& s);
/// {"n":..,"p50":..,"q":..,"tail":..} for a Quantiles.
std::string json_quantiles(const Quantiles& q);
std::string json_host();

/// Peak resident set of this process in MiB.
double self_peak_rss_mb();

/// Counter / histogram differences between two metric snapshots.
std::uint64_t counter_delta(const gaplan::obs::MetricsSnapshot& before,
                            const gaplan::obs::MetricsSnapshot& after,
                            const std::string& name);
gaplan::obs::HistogramSample histogram_delta(
    const gaplan::obs::MetricsSnapshot& before,
    const gaplan::obs::MetricsSnapshot& after, const std::string& name);

/// A metric's change over the measured window, by obs metric name.
using MetricDelta = std::function<double(const std::string& name)>;

/// The core.* layer metrics from counter and histogram-sum deltas.
void core_layer_metrics(Outcome& out, const MetricDelta& counter,
                        const MetricDelta& histogram_sum);
/// Same, between two snapshots of this process's metrics.
void core_layer_metrics(Outcome& out,
                        const gaplan::obs::MetricsSnapshot& before,
                        const gaplan::obs::MetricsSnapshot& after);

/// Span totals as a JSON object body member ("<key>": {...}).
std::string json_span_totals(const std::vector<Span>& spans,
                             const std::string& key = "spans");

/// Zero-fills every declared per-layer metric the workload left unset,
/// recording `why` for each in `absent`.
void fill_absent_layers(Outcome& out, const std::string& why);

}  // namespace e2ebench
