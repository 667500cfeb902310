// offline: a fixed batch of planning jobs run serially in one process — no
// eval pool, queue, plan cache or socket — so the GA engine does nearly all
// the work. One job class per runner path (see README.md). The batch is the
// same in every run, so every pass does the same GA work and the core.*
// counts are exact per pass; the seed sets the order the jobs run in, a
// fresh order each pass. A job's time is its median over the passes, each
// pass's times scaled to the reference host speed (host_speed.hpp).
#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "core/island.hpp"
#include "core/multiphase.hpp"
#include "domains/hanoi.hpp"
#include "domains/sliding_tile.hpp"
#include "domains/sokoban.hpp"
#include "grid/chaos.hpp"
#include "grid/replanner.hpp"
#include "grid/scenario.hpp"
#include "host_speed.hpp"
#include "server/problem_spec.hpp"
#include "workload.hpp"

namespace e2ebench {

namespace {

namespace ga = gaplan::ga;
namespace grid = gaplan::grid;
namespace domains = gaplan::domains;
using gaplan::util::Rng;

constexpr const char* kClasses[] = {"hanoi",  "tiles",   "sokoban", "crowding",
                                    "direct", "islands", "grid"};
constexpr std::size_t kNumClasses = std::size(kClasses);
constexpr std::size_t kJobsPerClass = 12;

/// What a finished job reports, plus the output check's verdict.
struct JobResult {
  double ms = 0.0;       ///< wall time of the public call alone
  bool solved = false;   ///< valid plan, or for grid a completed workflow
  bool has_goal_fit = false;
  double goal_fit = 0.0;
  std::string check_error;  ///< empty when the output check passed
};

struct Job {
  std::size_t cls = 0;
  /// Runs the public call (timed; wrapped in a span when tracing) and then
  /// checks its output outside the timed interval.
  std::function<JobResult(SpanLog&, std::uint64_t parent)> run;
};

/// Replays `plan` from `start`, requiring each op to be valid where it is
/// applied, and checks the reported goal fitness (and goal, when valid).
template <typename P>
std::string replay_check(const P& problem, const std::vector<int>& plan,
                         double goal_fit, bool valid) {
  auto s = problem.initial_state();
  std::vector<int> ops;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    problem.valid_ops(s, ops);
    if (std::find(ops.begin(), ops.end(), plan[i]) == ops.end()) {
      return "op " + std::to_string(i) + " of the plan is not applicable";
    }
    problem.apply(s, plan[i]);
  }
  const double fit = problem.goal_fitness(s);
  if (std::abs(fit - goal_fit) > 1e-12) {
    return "replayed goal fitness " + std::to_string(fit) +
           " != reported " + std::to_string(goal_fit);
  }
  if (valid && !problem.is_goal(s)) return "valid plan misses the goal";
  return {};
}

template <typename Fn>
auto timed_call(SpanLog& spans, std::uint64_t parent, const char* name,
                double& ms, Fn&& fn) {
  const std::uint64_t id = spans.open();
  const double t0 = now_ms();
  auto result = fn();
  const double t1 = now_ms();
  spans.close(id, parent, name, t0, t1);
  ms = t1 - t0;
  return result;
}

template <typename P>
Job multiphase_job(std::size_t cls, P problem, ga::GaConfig cfg,
                   std::uint64_t seed) {
  return Job{cls, [problem = std::move(problem), cfg, seed](
                      SpanLog& spans, std::uint64_t parent) {
               JobResult r;
               const auto res = timed_call(spans, parent, "ga.run_multiphase",
                                           r.ms, [&] {
                                             return ga::run_multiphase(
                                                 problem, cfg, seed);
                                           });
               r.solved = res.valid;
               r.has_goal_fit = true;
               r.goal_fit = res.goal_fitness;
               r.check_error =
                   replay_check(problem, res.plan, res.goal_fitness, res.valid);
               return r;
             }};
}

Job islands_job(std::size_t cls, domains::Hanoi problem, ga::GaConfig cfg,
                ga::IslandConfig icfg, std::uint64_t seed) {
  return Job{cls, [problem = std::move(problem), cfg, icfg, seed](
                      SpanLog& spans, std::uint64_t parent) {
               JobResult r;
               const auto res =
                   timed_call(spans, parent, "ga.run_islands", r.ms, [&] {
                     Rng rng(seed);
                     return ga::run_islands(problem, cfg, icfg, rng);
                   });
               const auto& best = res.best.eval;
               r.solved = best.valid;
               r.has_goal_fit = true;
               r.goal_fit = best.goal_fit;
               r.check_error =
                   replay_check(problem, best.ops, best.goal_fit, best.valid);
               return r;
             }};
}

/// The bench_chaos billing audit: each execution's cost equals the sum over
/// its task records, and the rounds sum to the outcome's total.
std::string billing_check(const grid::ReplanOutcome& outcome,
                          const grid::ResourcePool& pool) {
  double rounds_cost = 0.0;
  for (const auto& round : outcome.rounds) {
    double records = 0.0;
    for (const auto& task : round.execution.tasks) {
      records += (task.finish - task.start) * pool.machine(task.machine).cost_rate;
    }
    if (std::abs(records - round.execution.total_cost) > 1e-6) {
      return "execution cost differs from its task records";
    }
    rounds_cost += round.execution.total_cost;
  }
  if (std::abs(rounds_cost - outcome.total_cost) > 1e-6) {
    return "round costs do not sum to the outcome total";
  }
  if (!outcome.completed && outcome.note.empty()) return "silent degradation";
  return {};
}

Job grid_job(std::size_t cls, std::vector<grid::Disruption> disruptions,
             grid::ReplanConfig cfg) {
  return Job{cls, [disruptions = std::move(disruptions), cfg](
                      SpanLog& spans, std::uint64_t parent) {
               JobResult r;
               // The pool is live state the disruptions mutate: each run
               // starts from a fresh copy, like bench_chaos.
               const grid::Scenario scenario = grid::image_pipeline();
               grid::ResourcePool pool = grid::demo_pool();
               const auto problem = scenario.problem(pool);
               const auto outcome = timed_call(
                   spans, parent, "grid.plan_and_execute", r.ms, [&] {
                     return grid::plan_and_execute(problem, pool, disruptions,
                                                   cfg);
                   });
               r.solved = outcome.completed;
               r.check_error = billing_check(outcome, pool);
               return r;
             }};
}

ga::GaConfig paper_config() {
  ga::GaConfig cfg;  // Table 1: random crossover 0.9, mutation 0.01, tour 2
  cfg.population_size = 200;
  cfg.crossover = ga::CrossoverKind::kRandom;
  return cfg;
}

/// Seeds of the measured job set and of the set-up's warm-up jobs: fixed, so
/// every run times the same GA work whatever its --seed.
constexpr std::uint64_t kJobSetSeed = 20030422;
constexpr std::uint64_t kWarmUpSeed = 1000003;

std::uint64_t job_seed(std::uint64_t seed, std::size_t cls, std::size_t k) {
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ULL + 131 * cls + k;
  return gaplan::util::splitmix64(state);
}

/// The job set `seed` draws: kJobsPerClass jobs of every class.
std::vector<Job> make_jobs(std::uint64_t seed, double scale) {
  const auto gens = [scale](std::size_t g) {
    return std::max<std::size_t>(2, static_cast<std::size_t>(std::lround(g * scale)));
  };
  std::vector<Job> jobs;
  for (std::size_t k = 0; k < kJobsPerClass; ++k) {
    // Hanoi-7 multiphase (Table 2 shape): the SIMD-kernel decode path.
    {
      const domains::Hanoi hanoi(7);
      ga::GaConfig cfg = paper_config();
      cfg.initial_length = hanoi.optimal_length();
      cfg.max_length = 10 * cfg.initial_length;
      cfg.phases = 5;
      cfg.generations = gens(20);
      jobs.push_back(multiphase_job(0, hanoi, cfg, job_seed(seed, 0, k)));
    }
    // Random solvable 3x3 sliding tile (Tables 4/5 shape), mixed crossover.
    {
      Rng inst(job_seed(seed, 1, k) ^ 0x5A5A5A5AULL);
      const domains::SlidingTile gen(3);
      domains::SlidingTile puzzle(3, gen.random_solvable(inst));
      ga::GaConfig cfg = paper_config();
      cfg.crossover = ga::CrossoverKind::kMixed;
      cfg.initial_length = 36;  // n^2 * ceil(log2 n^2)
      cfg.max_length = 360;
      cfg.phases = 5;
      cfg.generations = gens(40);
      jobs.push_back(multiphase_job(1, std::move(puzzle), cfg,
                                    job_seed(seed, 1, k)));
    }
    // Sokoban catalog levels 1..3: scalar decode with the valid-ops cache.
    {
      domains::Sokoban level(gaplan::serve::sokoban_catalog_level(1 + k % 3));
      ga::GaConfig cfg = paper_config();
      cfg.initial_length = 16;
      cfg.max_length = 160;
      cfg.phases = 3;
      cfg.generations = gens(40);
      jobs.push_back(multiphase_job(2, std::move(level), cfg,
                                    job_seed(seed, 2, k)));
    }
    // Hanoi-5 under deterministic crowding replacement.
    {
      const domains::Hanoi hanoi(5);
      ga::GaConfig cfg = paper_config();
      cfg.population_size = 100;
      cfg.replacement = ga::ReplacementKind::kCrowding;
      cfg.initial_length = hanoi.optimal_length();
      cfg.max_length = 10 * cfg.initial_length;
      cfg.generations = gens(150);
      jobs.push_back(multiphase_job(3, hanoi, cfg, job_seed(seed, 3, k)));
    }
    // Hanoi-4 under the direct integer encoding.
    {
      const domains::Hanoi hanoi(4);
      ga::GaConfig cfg = paper_config();
      cfg.population_size = 100;
      cfg.encoding = ga::EncodingKind::kDirect;
      cfg.initial_length = hanoi.optimal_length();
      cfg.max_length = 10 * cfg.initial_length;
      cfg.generations = gens(60);
      jobs.push_back(multiphase_job(4, hanoi, cfg, job_seed(seed, 4, k)));
    }
    // Hanoi-5 as four islands in one process.
    {
      const domains::Hanoi hanoi(5);
      ga::GaConfig cfg = paper_config();
      cfg.population_size = 50;
      cfg.initial_length = hanoi.optimal_length();
      cfg.max_length = 10 * cfg.initial_length;
      cfg.generations = gens(60);
      // Every generation runs, so the job's time does not hinge on when a
      // seed first solves.
      cfg.stop_on_valid = false;
      ga::IslandConfig icfg;
      icfg.islands = 4;
      icfg.migration_interval = 15;
      jobs.push_back(islands_job(5, hanoi, cfg, icfg, job_seed(seed, 5, k)));
    }
    // The paper's application: the image pipeline on the 4-machine grid
    // under a seeded chaos scenario (bench_chaos settings).
    {
      grid::ChaosConfig chaos;
      chaos.failure_rate = 0.5;
      chaos.overload_rate = 0.5;
      Rng chaos_rng(job_seed(seed, 6, k));
      const grid::ResourcePool proto = grid::demo_pool();
      auto disruptions = grid::chaos_disruptions(proto, chaos, chaos_rng);
      grid::ReplanConfig cfg;
      cfg.seed = job_seed(seed, 6, k) >> 1;
      cfg.ga.population_size = 100;
      cfg.ga.generations = gens(45);
      cfg.ga.phases = 3;
      cfg.ga.crossover = ga::CrossoverKind::kMixed;
      cfg.ga.initial_length = 10;
      cfg.ga.max_length = 40;
      cfg.ga.cost_fitness = ga::CostFitnessKind::kInverseCost;
      cfg.max_replans = 10;
      jobs.push_back(grid_job(6, std::move(disruptions), cfg));
    }
  }
  return jobs;
}

}  // namespace

Outcome run_offline(const Options& opt) {
  Outcome out;
  SpanLog spans(opt.trace);

  // Set-up: build the job set and run a reduced-budget warm-up of every
  // class (first-touch allocation, lazy tables). Repeated before every
  // pass, so the median spans the whole run.
  std::vector<double> setup_s;
  std::vector<Job> jobs;
  const auto set_up = [&] {
    const double t0 = now_ms();
    auto warm = make_jobs(kWarmUpSeed, 0.1);
    SpanLog off(false);
    for (std::size_t c = 0; c < kNumClasses; ++c) warm[c].run(off, 0);
    jobs = make_jobs(kJobSetSeed, 1.0);
    return (now_ms() - t0) / 1000.0;
  };

  gaplan::obs::MetricsSnapshot before;
  gaplan::obs::MetricsSnapshot after_first_pass;
  // Per job, its time in each untraced and each traced pass.
  std::vector<std::vector<double>> job_ms;
  std::vector<std::vector<double>> traced_job_ms;
  std::size_t solved = 0;
  std::vector<std::size_t> class_solved(kNumClasses, 0);
  std::vector<std::size_t> class_runs(kNumClasses, 0);
  std::size_t goal_n = 0;
  double goal_sum = 0.0;
  std::vector<double> pass_ms;
  std::vector<double> pass_scale;
  // Every time below is scaled to the reference host speed by the kernel
  // timed after each job of its pass (host_speed.hpp).
  HostSpeed speed;
  std::vector<double> raw_ms;
  Rng order_rng(opt.seed);
  std::vector<std::size_t> order;

  const double deadline = now_ms() + opt.seconds * 1000.0;
  std::size_t pass = 0;
  do {
    const double raw_setup_s = set_up();
    if (pass == 0) {
      job_ms.assign(jobs.size(), {});
      traced_job_ms.assign(jobs.size(), {});
      order.resize(jobs.size());
      raw_ms.resize(jobs.size());
      for (std::size_t j = 0; j < jobs.size(); ++j) order[j] = j;
      before = gaplan::obs::snapshot_metrics();
    }
    order_rng.shuffle(order);
    // Traced runs alternate untraced and traced passes to price the spans;
    // only the untraced passes are timed for the metrics.
    const bool trace_pass = opt.trace && pass % 2 == 1;
    SpanLog off(false);
    SpanLog& log = trace_pass ? spans : off;
    const double p0 = now_ms();
    for (const std::size_t j : order) {
      const Job& job = jobs[j];
      const std::uint64_t id = log.open();
      const double j0 = now_ms();
      const JobResult r = job.run(log, id);
      log.close(id, 0, std::string("job.") + kClasses[job.cls], j0, now_ms());
      ++out.attempted;
      if (!r.check_error.empty()) {
        out.fail_check(std::string(kClasses[job.cls]) + " job: " + r.check_error);
      }
      raw_ms[j] = r.ms;
      speed.sample();
      solved += r.solved ? 1 : 0;
      class_solved[job.cls] += r.solved ? 1 : 0;
      ++class_runs[job.cls];
      if (r.has_goal_fit) {
        goal_sum += r.goal_fit;
        ++goal_n;
      }
    }
    const double pass_raw_ms = now_ms() - p0;
    if (pass == 0) after_first_pass = gaplan::obs::snapshot_metrics();
    const double k = speed.scale();
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      (trace_pass ? traced_job_ms : job_ms)[j].push_back(raw_ms[j] * k);
    }
    setup_s.push_back(raw_setup_s * k);
    pass_scale.push_back(k);
    if (!trace_pass) pass_ms.push_back(pass_raw_ms);
    ++pass;
  } while (now_ms() < deadline || (opt.trace && pass < 2));

  // Each job's median time over its untraced passes; the batch's figures
  // follow from those.
  std::vector<double> med_ms(jobs.size());
  std::vector<double> island_ms;
  std::vector<double> class_ms(kNumClasses, 0.0);
  double batch_ms = 0.0;
  double traced_batch_ms = 0.0;
  std::size_t within_slo = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    med_ms[j] = median(job_ms[j]);
    batch_ms += med_ms[j];
    traced_batch_ms += median(traced_job_ms[j]);
    class_ms[jobs[j].cls] += med_ms[j];
    if (jobs[j].cls == 5) island_ms.push_back(med_ms[j]);
    within_slo += med_ms[j] <= opt.slo_ms ? 1 : 0;
  }
  const Quantiles lat = quantiles(med_ms);
  const double jobs_per_pass = static_cast<double>(jobs.size());
  const double throughput = jobs_per_pass / (batch_ms / 1000.0);

  out.e2e("setup_s", median(setup_s), "s");
  out.e2e("plans_per_s", throughput, "1/s");
  out.e2e("solved_frac",
          static_cast<double>(solved) / static_cast<double>(out.attempted),
          "frac");
  out.e2e("goal_fit_mean", goal_n ? goal_sum / static_cast<double>(goal_n) : 0.0,
          "fitness");
  // Several classes meet near the middle of the jobs' times, so the sample
  // median jumps when two jobs swap ranks; the Harrell-Davis median moves
  // smoothly.
  out.e2e("lat_p50_ms", hd_median(med_ms), "ms");
  out.e2e("slo_frac", static_cast<double>(within_slo) / jobs_per_pass, "frac");
  out.e2e("ok_frac",
          1.0 - static_cast<double>(out.failed) / static_cast<double>(out.attempted),
          "frac");
  out.e2e("peak_rss_mb", self_peak_rss_mb(), "MB");

  // Per-layer: exact GA counts and engine times of the first (untraced)
  // pass, and per-class time per pass.
  core_layer_metrics(out, before, after_first_pass);
  out.layer("island_lat_p50_ms", median(island_ms), "ms");
  out.layer("lat_p99_ms", lat.tail, "ms");
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    out.layer(std::string("job.") + kClasses[c] + "_ms", class_ms[c], "ms");
  }
  // A closed batch has no arrival rate; its sustainable rate is its
  // completion rate.
  out.layer("max_rate_rps", throughput, "1/s");
  out.layer("grid.replans",
            static_cast<double>(
                counter_delta(before, after_first_pass, "grid.replans")),
            "count");
  if (opt.trace) {
    out.layer("trace.overhead_frac", traced_batch_ms / batch_ms - 1.0, "frac");
  }

  const auto json_list = [](const char* key, const std::vector<double>& v,
                            double unit) {
    std::string list = std::string("\"") + key + "\": [";
    for (std::size_t i = 0; i < v.size(); ++i) {
      list += (i ? ", " : "") + json_num(std::round(v[i] / unit) * unit);
    }
    return list + "]";
  };
  out.report.push_back(json_list("pass_ms", pass_ms, 0.1));
  out.report.push_back(json_list("pass_host_scale", pass_scale, 0.001));
  out.report.push_back(json_list("job_median_ms", med_ms, 0.0001));
  out.report.push_back("\"passes\": " + std::to_string(pass) +
                       ", \"jobs_per_pass\": " + std::to_string(jobs.size()) +
                       ", \"pass_ms_median\": " + json_num(median(pass_ms)) +
                       ", \"batch_ms\": " + json_num(batch_ms));
  std::string classes = "\"classes\": {";
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    classes += std::string(c ? ", " : "") + json_str(kClasses[c]) +
               ": {\"ms_per_pass\": " + json_num(class_ms[c]) +
               ", \"solved_frac\": " +
               json_num(static_cast<double>(class_solved[c]) /
                        static_cast<double>(class_runs[c])) +
               "}";
  }
  out.report.push_back(classes + "}");
  out.report.push_back("\"job_ms\": " + json_quantiles(lat));
  out.report.push_back("\"island_ms\": " +
                       json_quantiles(quantiles(island_ms)));
  out.report.push_back("\"setup_s_samples\": " + std::to_string(setup_s.size()));
  if (opt.trace) out.report.push_back(json_span_totals(spans.spans()));
  return out;
}

}  // namespace e2ebench
