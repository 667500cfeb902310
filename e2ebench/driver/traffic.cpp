#include "traffic.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <atomic>
#include <stdexcept>
#include <thread>

#include "core/multiphase.hpp"
#include "domains/hanoi.hpp"
#include "domains/sliding_tile.hpp"
#include "domains/sokoban.hpp"
#include "host_speed.hpp"
#include "load.hpp"
#include "server/request_codec.hpp"
#include "util/rng.hpp"
#include "workload.hpp"

namespace e2ebench {

namespace ga = gaplan::ga;
namespace serve = gaplan::serve;
using gaplan::util::Rng;

namespace {

serve::ProblemSpec parse_spec(const std::string& text) {
  std::string err;
  const auto spec = serve::ProblemSpec::parse(text, err);
  if (!spec) throw std::logic_error("bad problem spec " + text + ": " + err);
  return *spec;
}

/// Calls fn(problem) with the domain object the service builds for `spec`.
template <typename Fn>
auto with_problem(const serve::ProblemSpec& spec, Fn&& fn) {
  switch (spec.kind) {
    case serve::ProblemKind::kHanoi:
      return fn(gaplan::domains::Hanoi(spec.disks, spec.initial_stake,
                                       spec.goal_stake));
    case serve::ProblemKind::kSokoban:
      return fn(gaplan::domains::Sokoban(serve::sokoban_catalog_level(spec.level)));
    case serve::ProblemKind::kTiles: {
      Rng scramble(spec.scramble_seed);
      const gaplan::domains::SlidingTile gen(spec.tiles_n);
      return fn(gaplan::domains::SlidingTile(spec.tiles_n,
                                             gen.random_solvable(scramble)));
    }
  }
  throw std::logic_error("unknown problem kind");
}

}  // namespace

Universe make_universe() {
  Rng rng(0xC0FFEE123456789ULL);
  // Popularity ranks cycle through the twelve problems in a fixed order;
  // a fixed draw picks the tile scrambles and which GA seeds of each
  // problem are the popular ones. Tiles come last in the cycle: the GA does
  // not always solve them.
  std::vector<std::string> problems;
  for (int i = 0; i < 4; ++i) {
    problems.push_back("hanoi:" + std::to_string(3 + i));
    problems.push_back("sokoban:" + std::to_string(i));
  }
  for (int i = 0; i < 4; ++i) {
    problems.push_back("tiles:3:" + std::to_string(rng.below(1000000)));
  }
  std::vector<std::vector<std::uint64_t>> seeds(problems.size());
  for (auto& s : seeds) {
    for (std::uint64_t g = 1; g <= 16; ++g) s.push_back(g);
    rng.shuffle(s);
  }
  Universe u;
  for (std::size_t slot = 0; slot < 16; ++slot) {
    for (std::size_t p = 0; p < problems.size(); ++p) {
      u.keys.push_back(Key{parse_spec(problems[p]), seeds[p][slot]});
    }
  }
  for (std::uint64_t s = 1; s <= 8; ++s) {
    u.island_keys.push_back(Key{parse_spec("hanoi:4"), 100 + s});
  }
  return u;
}

Key probe_key() { return Key{parse_spec("hanoi:5"), 0}; }

std::vector<Arrival> make_arrivals(const Universe& u, double rate,
                                   double duration_s, std::uint64_t time_seed,
                                   std::uint64_t mix_seed, double island_share) {
  const std::vector<double> times = poisson_schedule(rate, duration_s, time_seed);
  const ZipfSampler zipf(u.keys.size(), kZipfExponent);
  Rng rng(mix_seed ^ 0x5EED5EED5EEDULL);
  std::vector<Arrival> out;
  out.reserve(times.size());
  for (const double t : times) {
    Arrival a;
    a.due_s = t;
    a.island = island_share > 0.0 && rng.chance(island_share);
    if (a.island) {
      a.key = static_cast<std::uint32_t>(rng.below(u.island_keys.size()));
    } else {
      a.key = static_cast<std::uint32_t>(zipf.sample(rng));
      a.priority = rng.chance(kPriorityShare) ? 1 : 0;
    }
    out.push_back(a);
  }
  return out;
}

ga::GaConfig request_config() {
  ga::GaConfig cfg;
  cfg.population_size = 200;
  cfg.generations = 40;
  cfg.phases = 3;
  return cfg;
}

ga::GaConfig island_config() {
  ga::GaConfig cfg;
  cfg.population_size = 40;
  cfg.generations = 20;
  cfg.phases = 1;
  // Sharded runs match run_islands generation for generation only when
  // every generation runs.
  cfg.stop_on_valid = false;
  return cfg;
}

ga::IslandConfig island_shape() {
  ga::IslandConfig icfg;
  icfg.islands = 4;
  icfg.migration_interval = 5;
  icfg.migrants = 2;
  return icfg;
}

std::string submit_line(const Key& k, int priority) {
  serve::PlanRequest req;
  req.problem = k.problem;
  req.config = request_config();
  req.seed = k.seed;
  req.priority = priority;
  return serve::render_submit_line(req);
}

std::string island_submit_line(const Key& k) {
  serve::PlanRequest req;
  req.problem = k.problem;
  req.config = island_config();
  req.seed = k.seed;
  std::string line = serve::render_submit_line(req);
  const ga::IslandConfig icfg = island_shape();
  line.pop_back();  // reopen the object for the island fields
  line += ",\"islands\":" + std::to_string(icfg.islands) +
          ",\"interval\":" + std::to_string(icfg.migration_interval) +
          ",\"migrants\":" + std::to_string(icfg.migrants) + "}";
  return line;
}

Answer multiphase_answer(const Key& k) {
  const ga::GaConfig cfg = serve::tuned_config(k.problem, request_config());
  return with_problem(k.problem, [&](const auto& problem) {
    const auto res = ga::run_multiphase(problem, cfg, k.seed);
    return Answer{res.valid, res.goal_fitness, res.plan, 0, 0};
  });
}

Answer islands_answer(const Key& k) {
  const ga::GaConfig cfg = serve::tuned_config(k.problem, island_config());
  return with_problem(k.problem, [&](const auto& problem) {
    Rng rng(k.seed);
    const auto res = ga::run_islands(problem, cfg, island_shape(), rng);
    return Answer{res.best.eval.valid, res.best.eval.goal_fit,
                  res.best.eval.ops, res.generations_run, res.migrations};
  });
}

double island_quiet_p50(
    const std::vector<std::pair<std::uint32_t, double>>& key_ms) {
  std::map<std::uint32_t, std::vector<double>> by_key;
  for (const auto& [key, ms] : key_ms) by_key[key].push_back(ms);
  std::vector<double> per_key;
  for (const auto& [key, ms] : by_key) per_key.push_back(quiet(ms));
  return median(per_key);
}

void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < std::max<std::size_t>(1, threads); ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

WindowStats reduce_window(double rate, const std::vector<Sample>& samples,
                          double slo_ms) {
  WindowStats w;
  w.rate = rate;
  w.sent = samples.size();
  std::vector<double> plain;
  std::vector<double> island;
  std::vector<double> lag;
  std::vector<double> first_quarter;
  std::vector<double> last_quarter;
  std::size_t within = 0;
  double window_ms = 0.0;
  for (const Sample& s : samples) window_ms = std::max(window_ms, s.due_ms);
  for (const Sample& s : samples) {
    if (!s.ok) ++w.failed;
    if (s.ok && s.latency_ms <= slo_ms) ++within;
    lag.push_back(s.lag_ms);
    if (s.island) {
      island.push_back(s.latency_ms);
      continue;
    }
    plain.push_back(s.latency_ms);
    if (s.due_ms <= 0.25 * window_ms) first_quarter.push_back(s.latency_ms);
    if (s.due_ms >= 0.75 * window_ms) last_quarter.push_back(s.latency_ms);
  }
  w.latency = quantiles(plain);
  w.island_latency = quantiles(island);
  w.lag = quantiles(lag);
  w.slo_frac = w.sent ? static_cast<double>(within) / static_cast<double>(w.sent)
                      : 0.0;
  // A queue that keeps growing shows as latency that climbs through the
  // window; a stable one has the same median early and late.
  w.backlog = median(last_quarter) > median(first_quarter) + 0.5 * slo_ms;
  w.score = std::max(w.latency.tail / slo_ms, w.backlog ? 1.0 + 1e-9 : 0.0);
  if (w.failed > 0) w.score = std::max(w.score, 1.0 + 1e-9);
  return w;
}

void check_samples(const Universe& u,
                   const std::vector<std::vector<Sample>>& windows,
                   Outcome& out) {
  std::vector<char> want_plain(u.keys.size(), 0);
  std::vector<char> want_island(u.island_keys.size(), 0);
  for (const auto& w : windows) {
    for (const Sample& s : w) {
      ++out.attempted;
      if (!s.ok) {
        ++out.failed;
        continue;
      }
      (s.island ? want_island : want_plain)[s.key] = 1;
    }
  }
  std::vector<Answer> plain(u.keys.size());
  std::vector<Answer> island(u.island_keys.size());
  const std::size_t threads = std::max(1u, std::thread::hardware_concurrency());
  parallel_for(plain.size() + island.size(), threads, [&](std::size_t i) {
    if (i < plain.size()) {
      if (want_plain[i]) plain[i] = multiphase_answer(u.keys[i]);
    } else if (want_island[i - plain.size()]) {
      island[i - plain.size()] = islands_answer(u.island_keys[i - plain.size()]);
    }
  });
  for (const auto& w : windows) {
    for (const Sample& s : w) {
      if (!s.ok) continue;
      const Answer& a = s.island ? island[s.key] : plain[s.key];
      const Key& k = s.island ? u.island_keys[s.key] : u.keys[s.key];
      const bool same = s.valid == a.valid && s.goal_fitness == a.goal_fitness &&
                        s.plan == a.plan &&
                        (!s.island || (s.generations == a.generations &&
                                       s.migrations == a.migrations));
      if (!same) {
        out.fail_check(std::string(s.island ? "island" : "plan") +
                       " result for " + k.problem.text() + " seed " +
                       std::to_string(k.seed) +
                       " differs from the in-process run (valid " +
                       std::to_string(s.valid) + "/" + std::to_string(a.valid) +
                       ", goal fitness " + json_num(s.goal_fitness) + "/" +
                       json_num(a.goal_fitness) + ", steps " +
                       std::to_string(s.plan.size()) + "/" +
                       std::to_string(a.plan.size()) + ")");
      }
    }
  }
}

Campaign run_campaign(const Universe& u, const WindowRunner& run,
                      double ref_rate, double island_share,
                      const std::vector<double>& rates, const Options& opt,
                      const std::function<void(CampaignEvent)>& on_event) {
  const double S = opt.seconds;
  SpanLog off(false);
  Campaign c;
  // The seed draws when requests arrive; which requests arrive is the same
  // sequence in every run, so the misses (and the GA work behind the tail)
  // do not change with the seed.
  const auto arrivals = [&](double rate, double share, std::uint64_t stream) {
    return make_arrivals(u, rate, share * S, opt.seed * 1024 + stream, stream,
                         island_share);
  };
  run(arrivals(ref_rate, kWarmShare, 1), off);

  std::size_t next_rate = 0;
  bool sweeping = opt.trace;
  double prev_rate = 0.0;
  double prev_score = 0.0;
  SpanLog spans(opt.trace);
  HostSpeed speed;
  const double share = opt.trace ? kTracedSegmentShare : kSegmentShare;
  for (int seg = 0; seg < kSegments; ++seg) {
    const auto reference = arrivals(ref_rate, share, 2 + seg);
    for (int i = 0; i < kSpeedSamples; ++i) speed.sample();
    const double t0 = now_ms();
    c.all.push_back(run(reference, off));
    c.reference_s += (now_ms() - t0) / 1000.0;
    for (int i = 0; i < kSpeedSamples; ++i) speed.sample();
    c.segment_scale.push_back(speed.scale());
    for (Sample& s : c.all.back()) s.host_scale = c.segment_scale.back();
    on_event(CampaignEvent::kSegmentEnd);
    c.reference.insert(c.reference.end(), c.all.back().begin(),
                       c.all.back().end());
    c.segments.push_back(reduce_window(ref_rate, c.all.back(), opt.slo_ms));
    if (opt.trace) {
      // Fresh arrivals from the same distribution: replaying the segment's
      // own keys would find them all freshly cached.
      const auto traced = arrivals(ref_rate, share, 200 + seg);
      on_event(CampaignEvent::kTracedBegin);
      c.all.push_back(run(traced, spans));
      on_event(CampaignEvent::kTracedEnd);
      c.traced.insert(c.traced.end(), c.all.back().begin(), c.all.back().end());
    }
    if (seg == 0 && sweeping) {
      // The sweep's first step starts from the reference rate's own score.
      const WindowStats first = reduce_window(ref_rate, c.reference, opt.slo_ms);
      if (first.meets()) {
        prev_rate = c.max_rate = ref_rate;
        prev_score = first.score;
      } else {
        c.max_rate = ref_rate * std::min(1.0, 1.0 / first.score);
        sweeping = false;
      }
    }
    // Sweep steps between reference segments; after the last segment the
    // sweep runs on until it finds its failing rate.
    const std::size_t steps = seg + 1 < kSegments ? 1 : rates.size();
    for (std::size_t k = 0; k < steps && sweeping && next_rate < rates.size(); ++k) {
      const double rate = rates[next_rate];
      WindowStats best;
      for (int attempt = 0; attempt < 2; ++attempt) {
        c.all.push_back(
            run(arrivals(rate, kSweepShare, 400 + 2 * next_rate + attempt), off));
        c.sweep.push_back(reduce_window(rate, c.all.back(), opt.slo_ms));
        if (attempt == 0 || c.sweep.back().score < best.score) best = c.sweep.back();
        if (best.meets()) break;
      }
      ++next_rate;
      if (!best.meets()) {
        const double span = best.score - prev_score;
        const double frac =
            span > 0.0 ? std::clamp((1.0 - prev_score) / span, 0.0, 1.0) : 0.0;
        c.max_rate = prev_rate + frac * (rate - prev_rate);
        sweeping = false;
      } else {
        prev_rate = rate;
        prev_score = best.score;
        c.max_rate = rate;
      }
    }
  }
  c.ref = reduce_window(ref_rate, c.reference, opt.slo_ms);
  if (opt.trace) {
    c.traced_ref = reduce_window(ref_rate, c.traced, opt.slo_ms);
    c.traced_spans = spans.spans();
  }
  return c;
}

void reference_metrics(Outcome& out, const Campaign& c, const OwnReadings& r) {
  std::size_t completed = 0;
  std::size_t valid = 0;
  double goal_sum = 0.0;
  for (const Sample& s : c.reference) {
    if (s.island || !s.ok) continue;
    ++completed;
    valid += s.valid ? 1 : 0;
    goal_sum += s.goal_fitness;
  }
  const double n = static_cast<double>(completed);
  out.e2e("setup_s", r.setup_s, "s");
  out.e2e("plans_per_s", r.plans_per_s, "1/s");
  out.e2e("solved_frac", completed ? static_cast<double>(valid) / n : 0.0, "frac");
  out.e2e("goal_fit_mean", completed ? goal_sum / n : 0.0, "fitness");
  // The median is the median over segments of each segment's median,
  // scaled to the reference host speed; the tail pools every segment, for
  // the sample count.
  std::vector<double> p50;
  for (std::size_t i = 0; i < c.segments.size(); ++i) {
    p50.push_back(c.segments[i].latency.p50 * c.segment_scale[i]);
  }
  out.e2e("lat_p50_ms", median(p50), "ms");
  out.layer("lat_p99_ms", c.ref.latency.tail, "ms");
  out.e2e("slo_frac", c.ref.slo_frac, "frac");
  out.e2e("ok_frac",
          out.attempted ? 1.0 - static_cast<double>(out.failed) /
                                    static_cast<double>(out.attempted)
                        : 0.0,
          "frac");
  out.e2e("peak_rss_mb", r.peak_rss_mb, "MB");
  out.report.push_back("\"reference\": " + json_windows({c.ref}));
  out.report.push_back("\"segments\": " + json_windows(c.segments));
  out.report.push_back("\"sweep\": " + json_windows(c.sweep));
  if (!c.traced.empty()) {
    out.layer("max_rate_rps", c.max_rate, "1/s");
    out.report.push_back("\"traced_reference\": " + json_windows({c.traced_ref}));
  }
}

double slot_capacity(const std::vector<Sample>& reference, double slots) {
  std::map<std::uint32_t, std::vector<double>> plan_ms;
  for (const Sample& s : reference) {
    if (!s.island && s.ok && !s.cached && s.plan_ms > 0.0) {
      plan_ms[s.key].push_back(s.plan_ms * s.host_scale);
    }
  }
  double slot_ms = 0.0;
  for (const auto& [key, ms] : plan_ms) {
    slot_ms += median(ms) * static_cast<double>(ms.size());
  }
  std::size_t completed = 0;
  for (const Sample& s : reference) completed += !s.island && s.ok ? 1 : 0;
  return slot_ms > 0.0 ? static_cast<double>(completed) / (slot_ms / 1000.0 / slots)
                       : 0.0;
}

std::string json_windows(const std::vector<WindowStats>& windows) {
  std::string out = "[";
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const WindowStats& w = windows[i];
    if (i) out += ", ";
    out += "{\"rate\": " + json_num(w.rate) + ", \"sent\": " +
           std::to_string(w.sent) + ", \"failed\": " + std::to_string(w.failed) +
           ", \"latency_ms\": " + json_quantiles(w.latency) +
           ", \"island_latency_ms\": " + json_quantiles(w.island_latency) +
           ", \"lag_ms\": " + json_quantiles(w.lag) +
           ", \"slo_frac\": " + json_num(w.slo_frac) +
           ", \"backlog\": " + (w.backlog ? "true" : "false") +
           ", \"score\": " + json_num(w.score) + "}";
  }
  return out + "]";
}

}  // namespace e2ebench
