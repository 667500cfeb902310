// e2ebench: the repository benchmark driver. One process runs one workload
// (offline | serve) and prints, as its last stdout line, a JSON
// object {"correct", "attempted", "failed", "metrics"} holding every
// end-to-end metric (--trace 0) or every per-layer metric (--trace 1). The
// line before it is a JSON report with the host block and the detail behind
// the metrics. Output checks that fail make the exit code 1.
//
//   e2ebench --workload serve --seed 3 --seconds 20 --trace 0
//            --slo-ms 250 --bin-dir .bench_build/gaplan/examples
//
// e2ebench/run.py builds this driver and passes --slo-ms and --bin-dir.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workload.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload offline|serve --seed N "
               "--seconds S --trace 0|1 --slo-ms MS [--bin-dir DIR]\n");
  return 2;
}

std::string metrics_json(const std::map<std::string, e2ebench::Metric>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    if (!first) out += ", ";
    first = false;
    out += e2ebench::json_str(name) + ": {\"value\": " +
           e2ebench::json_num(metric.value) +
           ", \"unit\": " + e2ebench::json_str(metric.unit) + "}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  e2ebench::Options opt;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      opt.trace = val == "1";
      have_trace = val == "0" || val == "1";
    } else if (key == "--slo-ms") {
      opt.slo_ms = std::atof(val.c_str());
    } else if (key == "--bin-dir") {
      opt.bin_dir = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !have_trace || opt.seconds <= 0.0 || opt.slo_ms <= 0.0) {
    return usage();
  }

  e2ebench::Outcome out;
  try {
    if (opt.workload == "offline") {
      out = e2ebench::run_offline(opt);
    } else if (opt.workload == "serve") {
      out = e2ebench::run_serve(opt);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s workload aborted: %s\n",
                 opt.workload.c_str(), e.what());
    return 1;
  }

  const bool correct = out.check_failures.empty();
  out.layer("fail_frac",
            out.attempted ? static_cast<double>(out.failed) /
                                static_cast<double>(out.attempted)
                          : 1.0,
            "frac");
  e2ebench::fill_absent_layers(
      out, "layer not exercised by the " + opt.workload + " workload");

  std::string report = "{\"workload\": " + e2ebench::json_str(opt.workload) +
                       ", \"seed\": " + std::to_string(opt.seed) +
                       ", \"seconds\": " + e2ebench::json_num(opt.seconds) +
                       ", \"trace\": " + (opt.trace ? "true" : "false") +
                       ", \"slo_ms\": " + e2ebench::json_num(opt.slo_ms) +
                       ", \"host\": " + e2ebench::json_host();
  for (const std::string& member : out.report) report += ", " + member;
  report += ", \"absent\": {";
  bool first = true;
  for (const auto& [name, why] : out.absent) {
    if (!first) report += ", ";
    first = false;
    report += e2ebench::json_str(name) + ": " + e2ebench::json_str(why);
  }
  report += "}, \"check_failures\": [";
  for (std::size_t i = 0; i < out.check_failures.size(); ++i) {
    if (i) report += ", ";
    report += e2ebench::json_str(out.check_failures[i]);
  }
  report += "], \"end_to_end\": " + metrics_json(out.end_to_end) + "}";
  for (const std::string& f : out.check_failures) {
    std::fprintf(stderr, "e2ebench: CHECK FAILED: %s\n", f.c_str());
  }

  std::printf("%s\n", report.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              metrics_json(opt.trace ? out.per_layer : out.end_to_end).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
