// serve: an in-process serve::PlanService under open-loop Poisson arrivals at
// fixed rates. Two planner slots, serial GA evaluation, one phase per slice
// (so long runs yield their slot), a few priority-1 requests, and Zipf-skewed
// keys over more keys than the plan cache holds — so warm hits answered
// inside submit() sit next to misses that insert and evict. The traced run
// then sends the same traffic, plus island submits, through the router and
// worker processes for the dist layer (cluster.cpp).
#include <algorithm>
#include <memory>
#include <utility>

#include "host_speed.hpp"
#include "server/plan_service.hpp"
#include "traffic.hpp"
#include "workload.hpp"

namespace e2ebench {

namespace serve = gaplan::serve;

namespace {

constexpr std::size_t kServeCache = 48;

serve::ServerConfig service_config() {
  serve::ServerConfig cfg;
  cfg.workers = 2;
  cfg.ga_threads = 1;
  cfg.slice_phases = 1;
  cfg.queue_capacity = 4096;
  cfg.cache_capacity = kServeCache;
  cfg.cache_shards = 4;
  return cfg;
}


/// One open-loop window: every arrival is submitted when due from this
/// thread; misses are collected with wait() after the last send. A request's
/// latency runs from its due time to its completion (the service's
/// admission-to-terminal time added to when submit() began).
std::vector<Sample> run_window(serve::PlanService& svc, const Universe& u,
                               const std::vector<Arrival>& arrivals,
                               SpanLog& spans) {
  struct Pending {
    std::size_t sample;
    std::uint64_t id;
    double submit_start;
    double submit_end;
    double due_abs;
    std::uint64_t span;
  };
  std::vector<Sample> samples;
  std::vector<Pending> pending;
  samples.reserve(arrivals.size());
  const double t0 = now_ms() + 2.0;
  for (const Arrival& a : arrivals) {
    const double due = t0 + a.due_s * 1000.0;
    sleep_until_ms(due);
    serve::PlanRequest req;
    req.problem = u.keys[a.key].problem;
    req.config = request_config();
    req.seed = u.keys[a.key].seed;
    req.priority = a.priority;
    const std::uint64_t request_span = spans.open();
    const std::uint64_t submit_span = spans.open();
    const double s0 = now_ms();
    const serve::SubmitOutcome o = svc.submit(std::move(req));
    const double s1 = now_ms();
    spans.close(submit_span, request_span, "PlanService.submit", s0, s1);
    Sample s;
    s.key = a.key;
    s.due_ms = a.due_s * 1000.0;
    s.lag_ms = s0 - due;
    s.submit_ms = s1 - s0;
    samples.push_back(std::move(s));
    pending.push_back(Pending{samples.size() - 1, o.accepted ? o.id : 0, s0, s1,
                              due, request_span});
  }
  for (const Pending& p : pending) {
    Sample& s = samples[p.sample];
    if (p.id == 0) {  // rejected at admission
      s.latency_ms = p.submit_end - p.due_abs;
      continue;
    }
    const auto st = svc.wait(p.id);
    const double done = std::max(p.submit_end, p.submit_start + st->total_ms);
    s.latency_ms = done - p.due_abs;
    s.ok = st->state == serve::RequestState::kDone;
    s.valid = st->plan_valid;
    s.goal_fitness = st->goal_fitness;
    s.plan = st->plan;
    s.cached = st->cached;
    s.queue_wait_ms = st->queue_wait_ms;
    s.plan_ms = st->plan_ms;
    s.other_ms = st->total_ms - st->queue_wait_ms - st->plan_ms -
                 st->cache_probe_ms;
    if (spans.enabled()) {
      const std::uint64_t id = spans.open();
      spans.close(id, p.span, "PlanService.completion", p.submit_end, done);
      spans.close(p.span, 0, "request", p.due_abs, done);
    }
  }
  return samples;
}

/// Per-layer server.* metrics of the traced segments; `marks` holds the
/// service snapshots taken before and after each one.
void server_layer_metrics(Outcome& out, const std::vector<Sample>& samples,
                          const std::vector<serve::ServiceSnapshot>& marks) {
  std::vector<double> submit_us;
  std::vector<double> queue_wait;
  std::vector<double> plan;
  std::vector<double> other;
  std::size_t cached = 0;
  for (const Sample& s : samples) {
    cached += s.cached ? 1 : 0;
    submit_us.push_back(s.submit_ms * 1000.0);
    if (s.ok && !s.cached) {
      queue_wait.push_back(s.queue_wait_ms);
      plan.push_back(s.plan_ms);
      other.push_back(s.other_ms);
    }
  }
  const Quantiles sq = quantiles(submit_us);
  const Quantiles qq = quantiles(queue_wait);
  const Quantiles pq = quantiles(plan);
  out.layer("server.submit_us.p50", sq.p50, "us");
  out.layer("server.submit_us.p99", sq.tail, "us");
  // Share of plain requests answered from the plan cache (the service's
  // hit/miss counters also count the re-probe every miss makes at dequeue).
  out.layer("server.cache_hit_rate",
            submit_us.empty() ? 0.0
                              : static_cast<double>(cached) /
                                    static_cast<double>(submit_us.size()),
            "frac");
  out.layer("server.queue_wait_ms.p50", qq.p50, "ms");
  out.layer("server.queue_wait_ms.p99", qq.tail, "ms");
  out.layer("server.plan_ms.p50", pq.p50, "ms");
  out.layer("server.plan_ms.p99", pq.tail, "ms");
  out.layer("server.other_ms", median(other), "ms");
  double yields = 0.0;
  double rejected = 0.0;
  for (std::size_t i = 0; i + 1 < marks.size(); i += 2) {
    yields += static_cast<double>(marks[i + 1].yields - marks[i].yields);
    rejected += static_cast<double>(marks[i + 1].rejected - marks[i].rejected);
  }
  out.layer("server.yields", yields, "count");
  out.layer("server.rejected", rejected, "count");
  out.report.push_back("\"server_layer\": {\"submit_us\": " + json_quantiles(sq) +
                       ", \"queue_wait_ms\": " + json_quantiles(qq) +
                       ", \"plan_ms\": " + json_quantiles(pq) + "}");
}

}  // namespace

Outcome run_serve(const Options& opt) {
  Outcome out;

  // Set-up: key universe and a fresh service, ready once a probe request (a
  // key outside the universe) is answered. Repeated after every reference
  // segment with a throwaway service, so the median spans the whole run;
  // each time is scaled to the reference host speed (host_speed.hpp).
  std::vector<double> setup_s;
  HostSpeed speed;
  const auto set_up = [&](Universe& u) {
    const double t0 = now_ms();
    u = make_universe();
    auto svc = std::make_unique<serve::PlanService>(service_config());
    serve::PlanRequest probe;
    probe.problem = probe_key().problem;
    probe.config = request_config();
    probe.seed = probe_key().seed;
    svc->wait(svc->submit(std::move(probe)).id);
    const double raw_s = (now_ms() - t0) / 1000.0;
    for (int i = 0; i < kSpeedSamples; ++i) speed.sample();
    setup_s.push_back(raw_s * speed.scale());
    return svc;
  };
  Universe u;
  const std::unique_ptr<serve::PlanService> svc = set_up(u);

  gaplan::obs::Gauge& depth_max = gaplan::obs::gauge("server.queue_depth_max");
  std::vector<gaplan::obs::MetricsSnapshot> obs_marks;
  std::vector<serve::ServiceSnapshot> svc_marks;
  OwnReadings own;
  std::size_t segments_done = 0;
  std::int64_t traced_depth_max = 0;
  const Campaign c = run_campaign(
      u,
      [&](const std::vector<Arrival>& arrivals, SpanLog& spans) {
        return run_window(*svc, u, arrivals, spans);
      },
      kReferenceRate, /*island_share=*/0.0, kSweepRates, opt,
      [&](CampaignEvent ev) {
        switch (ev) {
          case CampaignEvent::kSegmentEnd: {
            // Peak memory after the warm-up and the first reference
            // segment: a fixed amount of work, read before any throwaway
            // set-up service (whose threads' malloc arenas vary) and any
            // sweep window (whose backlog varies).
            if (++segments_done == 1) own.peak_rss_mb = self_peak_rss_mb();
            Universe scratch;
            set_up(scratch)->shutdown(true);
            return;
          }
          case CampaignEvent::kTracedBegin:
            // The gauge is a running maximum: restart it so it covers
            // only the traced segments.
            depth_max.set(0);
            break;
          case CampaignEvent::kTracedEnd:
            traced_depth_max = std::max(traced_depth_max, depth_max.value());
            break;
        }
        obs_marks.push_back(gaplan::obs::snapshot_metrics());
        svc_marks.push_back(svc->snapshot());
      });
  const auto snap = svc->snapshot();
  if (opt.trace) {
    const auto sum_pairs = [&](auto&& delta) {
      return [&, delta](const std::string& name) {
        double v = 0.0;
        for (std::size_t i = 0; i + 1 < obs_marks.size(); i += 2) {
          v += delta(obs_marks[i], obs_marks[i + 1], name);
        }
        return v;
      };
    };
    core_layer_metrics(
        out,
        sum_pairs([](const auto& a, const auto& b, const std::string& n) {
          return static_cast<double>(counter_delta(a, b, n));
        }),
        sum_pairs([](const auto& a, const auto& b, const std::string& n) {
          return histogram_delta(a, b, n).sum;
        }));
    server_layer_metrics(out, c.traced, svc_marks);
    out.layer("server.queue_depth_max", static_cast<double>(traced_depth_max),
              "count");
    out.layer("gen.send_lag_p99_ms", c.traced_ref.lag.tail, "ms");
    out.layer("trace.overhead_frac",
              c.ref.latency.p50 > 0.0
                  ? c.traced_ref.latency.p50 / c.ref.latency.p50 - 1.0
                  : 0.0,
              "frac");
    out.report.push_back(json_span_totals(c.traced_spans));
  }
  svc->shutdown(true);

  check_samples(u, c.all, out);
  own.setup_s = median(setup_s);
  own.plans_per_s = slot_capacity(
      c.reference, static_cast<double>(service_config().workers));
  reference_metrics(out, c, own);
  out.report.push_back("\"setup_s_samples\": " + std::to_string(setup_s.size()));
  out.report.push_back("\"service\": {\"completed\": " +
                       std::to_string(snap.completed) +
                       ", \"cache_hits\": " + std::to_string(snap.cache.hits) +
                       ", \"cache_misses\": " + std::to_string(snap.cache.misses) +
                       ", \"cache_evictions\": " +
                       std::to_string(snap.cache.evictions) + "}");
  if (opt.trace) run_cluster_layers(opt, out);
  return out;
}

}  // namespace e2ebench
