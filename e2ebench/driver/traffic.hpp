// Open-loop traffic of the serve workload and its router phase: the seeded
// key universe, the per-window arrival schedule, the request settings, the
// reference answers the output checks compare against, and the per-window
// statistics both workloads reduce to metrics.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/island.hpp"
#include "server/problem_spec.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace e2ebench {

/// One cache key: a problem and the GA seed planned for it.
struct Key {
  gaplan::serve::ProblemSpec problem;
  std::uint64_t seed = 1;
};

struct Arrival {
  double due_s = 0.0;     ///< offset from the window start
  std::uint32_t key = 0;  ///< index into Universe::keys or ::island_keys
  bool island = false;
  int priority = 0;
};

/// The (problem, seed) key set, in popularity order for the Zipf sampler.
/// Plain keys cover hanoi:3..6, the four Sokoban catalog levels and four
/// tiles:3 scrambles, 16 GA seeds each: 192 keys, more than any cache the
/// workloads configure. Island keys are eight hanoi:4 runs. The set is the
/// same in every run, so a miss costs the same GA work whatever the seed;
/// the seed draws the traffic (arrival times, Zipf draws, priorities).
struct Universe {
  std::vector<Key> keys;
  std::vector<Key> island_keys;
};

Universe make_universe();

/// A key outside every universe: the readiness probe of a set-up.
Key probe_key();

/// Share of plain arrivals at priority 1, and of router-phase arrivals that
/// are island runs (PlanService itself has no island verb).
inline constexpr double kPriorityShare = 0.05;
inline constexpr double kRouterIslandShare = 0.1;
inline constexpr double kZipfExponent = 1.0;

/// The reference rate and the sweep's rate grid (requests per second), the
/// same for the service and its router phase so the two compare rate for
/// rate; the grid steps by about 15% so the interpolated max_rate_rps moves
/// smoothly.
inline constexpr double kReferenceRate = 160.0;
inline const std::vector<double> kSweepRates = {260.0, 300.0, 345.0, 400.0, 460.0,
                                                530.0, 610.0, 700.0, 800.0, 920.0};

/// Shares of --seconds: the untimed warm-up window, each of the kSegments
/// reference segments (measured run; traced run, where a traced segment
/// follows each), and each window of the traced run's rate sweep. Many
/// short segments give the estimates over segments enough repetitions.
inline constexpr double kWarmShare = 0.05;
inline constexpr int kSegments = 16;
/// Reference-kernel timings just before and just after each reference
/// segment, for its host-speed scale.
inline constexpr int kSpeedSamples = 8;
inline constexpr double kSegmentShare = 0.05;
inline constexpr double kTracedSegmentShare = 0.022;
inline constexpr double kSweepShare = 0.035;

/// Poisson arrivals at `rate` over `duration_s` with times drawn from
/// `time_seed`; the request sequence — each a Zipf-ranked plain key (with
/// its priority) or, at `island_share`, an island key — is drawn from
/// `mix_seed`. A pure function of both seeds.
std::vector<Arrival> make_arrivals(const Universe& u, double rate,
                                   double duration_s, std::uint64_t time_seed,
                                   std::uint64_t mix_seed, double island_share);

/// GA settings of a plain request, before the service's tuned_config.
gaplan::ga::GaConfig request_config();
/// GA settings and island shape of an island request.
gaplan::ga::GaConfig island_config();
gaplan::ga::IslandConfig island_shape();

/// The NDJSON submit line for a plain or island key.
std::string submit_line(const Key& k, int priority);
std::string island_submit_line(const Key& k);

/// What a plan request must return, computed in process.
struct Answer {
  bool valid = false;
  double goal_fitness = 0.0;
  std::vector<int> plan;
  std::size_t generations = 0;  ///< island runs only
  std::size_t migrations = 0;   ///< island runs only
};

/// ga::run_multiphase(problem, tuned_config(problem, request_config()), seed).
Answer multiphase_answer(const Key& k);
/// ga::run_islands with the island request's settings, tuned the same way.
Answer islands_answer(const Key& k);

/// Runs `fn(i)` for i in [0, n) on up to `threads` threads.
void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn);

/// One finished request of a window, as the client saw it.
struct Sample {
  double due_ms = 0.0;      ///< offset from the window start
  double latency_ms = 0.0;  ///< due -> completion seen by the client
  double lag_ms = 0.0;      ///< due -> sent
  bool island = false;
  bool ok = false;          ///< accepted and completed (not rejected/failed)
  bool valid = false;
  double goal_fitness = 0.0;
  std::uint32_t key = 0;
  std::vector<int> plan;
  std::size_t generations = 0;  ///< island runs
  std::size_t migrations = 0;   ///< island runs
  // Layer detail: the submit call, and the service's own status breakdown.
  double submit_ms = 0.0;
  bool cached = false;
  double queue_wait_ms = 0.0;
  double plan_ms = 0.0;
  double other_ms = 0.0;
  /// Reference-speed scale of the sample's reference segment (1 elsewhere).
  double host_scale = 1.0;
};

/// A fixed-rate window reduced against the latency limit.
struct WindowStats {
  double rate = 0.0;
  std::size_t sent = 0;
  std::size_t failed = 0;
  Quantiles latency;         ///< plain requests
  Quantiles island_latency;  ///< island requests
  Quantiles lag;
  double slo_frac = 0.0;     ///< of every request sent; failures miss
  bool backlog = false;      ///< latency grew across the window
  double score = 0.0;        ///< max(tail / limit, backlog ? 1 : 0)
  bool meets() const { return score <= 1.0 && failed == 0; }
};

WindowStats reduce_window(double rate, const std::vector<Sample>& samples,
                          double slo_ms);

/// Counts every sample as attempted (failed when not ok) and checks each
/// returned plan against the in-process answer for its key, computed here,
/// outside any timed window; a mismatch is a check failure.
void check_samples(const Universe& u,
                   const std::vector<std::vector<Sample>>& windows,
                   Outcome& out);

/// Median over island keys of each key's quiet latency; `key_ms` pairs an
/// island key with one measured latency.
double island_quiet_p50(
    const std::vector<std::pair<std::uint32_t, double>>& key_ms);

/// Runs one window of arrivals (spans into `spans`) and returns its
/// samples once every request has completed.
using WindowRunner =
    std::function<std::vector<Sample>(const std::vector<Arrival>&, SpanLog&)>;

struct Campaign {
  std::vector<Sample> reference;  ///< pooled reference segments
  double reference_s = 0.0;       ///< wall time of those segments
  WindowStats ref;                ///< the pooled reference, reduced
  std::vector<WindowStats> segments;  ///< each reference segment, reduced
  /// Each reference segment's scale to the reference host speed, from the
  /// reference kernel timed just before and just after it (host_speed.hpp).
  std::vector<double> segment_scale;
  std::vector<WindowStats> sweep; ///< every sweep window run, retries too
  double max_rate = 0.0;
  std::vector<Sample> traced;     ///< traced segments (trace mode)
  WindowStats traced_ref;
  std::vector<Span> traced_spans;
  std::vector<std::vector<Sample>> all;  ///< every measured window
};

/// The open-loop run: an untimed warm-up at `ref_rate`, then
/// kSegments reference segments at `ref_rate` (island arrivals at
/// `island_share`). The measured run does only that, so every end-to-end
/// figure comes from steady load spread over the whole run; the workload
/// does its own between-segment work (set-up repetitions, readings) when a
/// segment ends. The traced run shortens the segments, follows each with a
/// traced segment (fresh arrivals, same rate and mix) and runs an ascending
/// sweep over `rates` between them for max_rate_rps: a sweep rate that
/// misses the limit is retried once with fresh arrivals and fails only if
/// both tries miss (the better score counts); the sweep stops at the first
/// failing rate. `on_event` marks the points where the workloads take their
/// own readings.
enum class CampaignEvent {
  kSegmentEnd,    ///< after each reference segment
  kTracedBegin,   ///< before each traced segment
  kTracedEnd,     ///< after each traced segment
};
Campaign run_campaign(const Universe& u, const WindowRunner& run,
                      double ref_rate, double island_share,
                      const std::vector<double>& rates, const Options& opt,
                      const std::function<void(CampaignEvent)>& on_event);

/// What a workload measures itself for the shared end-to-end metrics.
struct OwnReadings {
  double setup_s = 0.0;      ///< median set-up time
  double peak_rss_mb = 0.0;
  double plans_per_s = 0.0;
};

/// The serve workload's end-to-end metrics, from a campaign (its
/// reference segments and sweep) plus the workload's own readings, and the
/// window tables for the report.
void reference_metrics(Outcome& out, const Campaign& c, const OwnReadings& r);


/// The planning capacity the reference traffic implies: its completed plain
/// requests over the planner-slot time their misses needed, with each key's
/// planning time (the service's plan_ms, scaled to the reference host speed)
/// at its median over the run (a key's miss is the same GA run every time).
double slot_capacity(const std::vector<Sample>& reference, double slots);


/// JSON array of window summaries (rate, sent, failed, percentiles, score).
std::string json_windows(const std::vector<WindowStats>& windows);

}  // namespace e2ebench
