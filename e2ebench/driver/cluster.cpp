// The router phase of the serve workload's traced run: the shipped
// gaplan_router process in front of two gaplan_worker processes over
// localhost TCP — the only part of the benchmark that crosses the wire, the
// hash ring, the distributed cache tier (probe, fanout repair, gossip
// put/del) and cross-process island lockstep. Each worker has one planner
// slot and a plan cache smaller than its share of the keys; gossip runs both
// ways; the router probes every worker on a primary miss. Traffic has the
// serve workload's shape plus a fixed share of island submits, sent open
// loop over at most nproc client connections.
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "dist/net.hpp"
#include "server/wire.hpp"
#include "traffic.hpp"
#include "workload.hpp"

namespace e2ebench {

namespace serve = gaplan::serve;
namespace obs = gaplan::obs;

namespace {

/// Per worker: fewer entries than the worker's 96-key share of the ring, so
/// misses still insert and evict; large enough that the popular keys sit on
/// their primary (gossip copies every insert to both workers), so the median
/// request is a one-probe hit rather than sitting between one- and
/// three-hop hits.
constexpr std::size_t kWorkerCache = 80;

/// A child process with its stdout on a pipe; killed (and reaped) on
/// destruction if it has not exited by then.
class Child {
 public:
  explicit Child(const std::vector<std::string>& argv) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      dup2(fds[1], STDOUT_FILENO);
      close(fds[0]);
      close(fds[1]);
      std::vector<char*> args;
      for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
      args.push_back(nullptr);
      execv(args[0], args.data());
      _exit(127);
    }
    close(fds[1]);
    out_ = fds[0];
  }
  ~Child() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    if (out_ >= 0) close(out_);
  }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Reads stdout until the "listening on 127.0.0.1:<port>" line.
  int wait_port() {
    std::string text;
    char buf[256];
    for (;;) {
      const ssize_t n = read(out_, buf, sizeof buf);
      if (n <= 0) throw std::runtime_error("child exited before listening");
      text.append(buf, static_cast<std::size_t>(n));
      const auto at = text.find("127.0.0.1:");
      if (at != std::string::npos && text.find('\n', at) != std::string::npos) {
        return std::atoi(text.c_str() + at + 10);
      }
    }
  }

  /// Waits up to `timeout_ms` for a clean exit; false when still running.
  bool wait_exit(double timeout_ms) {
    const double deadline = now_ms() + timeout_ms;
    while (now_ms() < deadline) {
      if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

 private:
  pid_t pid_ = -1;
  int out_ = -1;
};

int free_port() {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof addr;
  if (fd < 0 || bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    if (fd >= 0) close(fd);
    throw std::runtime_error("cannot pick a free port");
  }
  close(fd);
  return ntohs(addr.sin_port);
}

serve::WireMessage rpc(gaplan::dist::Conn& c, const std::string& line) {
  std::string resp;
  if (!c.roundtrip(line, resp)) throw std::runtime_error("rpc failed: " + line);
  serve::WireMessage msg;
  std::string err;
  if (!serve::parse_wire_message(resp, msg, err)) {
    throw std::runtime_error("bad response: " + err);
  }
  return msg;
}

serve::WireMessage rpc_once(int port, const std::string& line) {
  gaplan::dist::Conn c;
  if (!c.connect("127.0.0.1", port)) throw std::runtime_error("connect failed");
  return rpc(c, line);
}

std::vector<int> plan_of(const serve::WireMessage& m) {
  std::vector<int> out;
  if (const auto* a = m.get_array("plan")) {
    for (const double v : *a) out.push_back(static_cast<int>(v));
  }
  return out;
}

/// Router + two workers, started ready and stopped on destruction.
class Cluster {
 public:
  explicit Cluster(const std::string& bin_dir) {
    const int p0 = free_port();
    const int p1 = free_port();
    const auto worker = [&](int port, int peer) {
      return std::make_unique<Child>(std::vector<std::string>{
          bin_dir + "/gaplan_worker", "--tcp", std::to_string(port),
          "--workers", "1", "--cache", std::to_string(kWorkerCache),
          "--cache-shards", "2", "--queue", "4096", "--peer",
          "127.0.0.1:" + std::to_string(peer)});
    };
    workers_.push_back(worker(p0, p1));
    workers_.push_back(worker(p1, p0));
    for (auto& w : workers_) worker_ports_.push_back(w->wait_port());
    const std::string cfg_path = bin_dir + "/e2ebench-cluster.dist";
    {
      std::ofstream cfg(cfg_path);
      for (const int port : worker_ports_) cfg << "backend 127.0.0.1:" << port << "\n";
      cfg << "probe-fanout true\n";
    }
    router_ = std::make_unique<Child>(std::vector<std::string>{
        bin_dir + "/gaplan_router", "--config", cfg_path, "--tcp", "0"});
    router_port_ = router_->wait_port();
    const auto stats = rpc_once(router_port_, "{\"cmd\":\"stats\"}");
    if (stats.get_number("backends_up").value_or(0) != 2.0) {
      throw std::runtime_error("router does not see both workers up");
    }
  }
  ~Cluster() { stop(); }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int router_port() const { return router_port_; }
  const std::vector<int>& worker_ports() const { return worker_ports_; }

  /// Asks every process to shut down and reaps it (killing stragglers).
  void stop() {
    if (!router_) return;
    const std::string bye = "{\"cmd\":\"shutdown\"}";
    try {
      rpc_once(router_port_, bye);
    } catch (const std::exception&) {
    }
    for (const int port : worker_ports_) {
      try {
        rpc_once(port, bye);
      } catch (const std::exception&) {
      }
    }
    router_->wait_exit(5000.0);
    for (auto& w : workers_) w->wait_exit(5000.0);
    router_.reset();
    workers_.clear();
  }

 private:
  std::vector<std::unique_ptr<Child>> workers_;
  std::vector<int> worker_ports_;
  std::unique_ptr<Child> router_;
  int router_port_ = 0;
};

/// Fills a sample's result fields from a terminal router response.
void record_result(Sample& s, const serve::WireMessage& m, double due,
                   double done) {
  const std::string* state = m.get_string("state");
  s.latency_ms = done - due;
  s.ok = m.get_bool("ok").value_or(false) && state && *state == "done";
  s.cached = m.get_bool("cached").value_or(false);
  s.valid = m.get_bool("valid").value_or(false);
  s.goal_fitness = m.get_number("goal_fitness").value_or(0.0);
  s.plan = plan_of(m);
  s.generations = static_cast<std::size_t>(m.get_number("generations").value_or(0));
  s.migrations = static_cast<std::size_t>(m.get_number("migrations").value_or(0));
  s.plan_ms = m.get_number("plan_ms").value_or(0.0);
}

std::string poll_line(std::uint64_t id) {
  return "{\"cmd\":\"poll\",\"id\":" + std::to_string(id) + "}";
}

/// How often the completion waiter polls each pending request: the most a
/// completion can be seen late, plus one pass over the pending requests.
constexpr double kPollIntervalMs = 1.0;

/// One open-loop window over `connections` router connections: all but one
/// are sender lanes, which take arrivals in order and send each when due
/// (or, if every lane is busy, as soon as one is free — that wait counts,
/// since latency runs from the due time); the last is the completion
/// waiter, which polls the queued requests every kPollIntervalMs. It polls
/// rather than blocks in `wait`: the router forwards either to the worker
/// over its one connection to that worker, so a blocking wait would hold
/// that connection and stall other requests' probes behind it. Island
/// submits are synchronous at the router and hold their lane for the run.
std::vector<Sample> run_window(int router_port, const Universe& u,
                               const std::vector<Arrival>& arrivals,
                               std::size_t connections, SpanLog& spans) {
  struct Pending {
    std::size_t sample;
    std::uint64_t id;
    double due;
    double sent;
    std::uint64_t span;
  };
  std::vector<Sample> samples(arrivals.size());
  std::atomic<std::size_t> next{0};
  std::atomic<bool> broken{false};
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> pending;
  std::size_t senders_left = std::max<std::size_t>(1, connections - 1);
  const double t0 = now_ms() + 5.0;

  const auto sender = [&] {
    gaplan::dist::Conn conn;
    try {
      if (!conn.connect("127.0.0.1", router_port)) throw std::runtime_error("connect");
      for (std::size_t i = next++; i < arrivals.size() && !broken; i = next++) {
        const Arrival& a = arrivals[i];
        Sample& s = samples[i];
        const double due = t0 + a.due_s * 1000.0;
        sleep_until_ms(due);
        s.key = a.key;
        s.island = a.island;
        s.due_ms = a.due_s * 1000.0;
        const std::uint64_t req_span = spans.open();
        const std::uint64_t submit_span = spans.open();
        const double s0 = now_ms();
        s.lag_ms = s0 - due;
        serve::WireMessage m =
            rpc(conn, a.island ? island_submit_line(u.island_keys[a.key])
                               : submit_line(u.keys[a.key], a.priority));
        const double s1 = now_ms();
        s.submit_ms = s1 - s0;
        spans.close(submit_span, req_span, "router.submit", s0, s1);
        const std::string* state = m.get_string("state");
        const bool ok = m.get_bool("ok").value_or(false) && state;
        if (ok && *state != "done") {
          std::lock_guard<std::mutex> lock(mu);
          pending.push_back(Pending{i,
                                    static_cast<std::uint64_t>(
                                        m.get_number("id").value_or(0)),
                                    due, s1, req_span});
          cv.notify_all();
          continue;
        }
        if (ok && !m.get_array("plan")) {
          // A submit the worker answers from its own cache (a plan that
          // landed by gossip after the router's probe) comes back "done"
          // without the plan; a poll fetches it.
          m = rpc(conn, poll_line(static_cast<std::uint64_t>(
                            m.get_number("id").value_or(0))));
        }
        const double done = now_ms();
        record_result(s, m, due, done);
        spans.close(req_span, 0, a.island ? "island_request" : "request", due, done);
      }
    } catch (const std::exception&) {
      broken = true;
    }
    std::lock_guard<std::mutex> lock(mu);
    --senders_left;
    cv.notify_all();
  };

  const auto waiter = [&] {
    gaplan::dist::Conn conn;
    try {
      if (!conn.connect("127.0.0.1", router_port)) throw std::runtime_error("connect");
      std::vector<Pending> mine;
      for (;;) {
        {
          std::unique_lock<std::mutex> lock(mu);
          while (pending.empty() && mine.empty() && senders_left > 0) cv.wait(lock);
          if (pending.empty() && mine.empty()) return;
          mine.insert(mine.end(), pending.begin(), pending.end());
          pending.clear();
        }
        const double pass_start = now_ms();
        std::vector<Pending> running;
        for (const Pending& p : mine) {
          const serve::WireMessage m = rpc(conn, poll_line(p.id));
          const std::string* state = m.get_string("state");
          if (m.get_bool("ok").value_or(false) && state &&
              (*state == "queued" || *state == "planning")) {
            running.push_back(p);
            continue;
          }
          const double done = now_ms();
          record_result(samples[p.sample], m, p.due, done);
          if (spans.enabled()) {
            const std::uint64_t id = spans.open();
            spans.close(id, p.span, "router.poll", p.sent, done);
            spans.close(p.span, 0, "request", p.due, done);
          }
        }
        mine.swap(running);
        const double rest = pass_start + kPollIntervalMs - now_ms();
        if (!mine.empty() && rest > 0.0) {
          std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(rest));
        }
      }
    } catch (const std::exception&) {
      broken = true;
      // Unblock the senders' bookkeeping: nothing more will be collected.
      std::lock_guard<std::mutex> lock(mu);
      pending.clear();
    }
  };

  std::vector<std::thread> threads;
  for (std::size_t l = 0; l < std::max<std::size_t>(1, connections - 1); ++l) {
    threads.emplace_back(sender);
  }
  std::thread wait_thread(waiter);
  for (std::thread& t : threads) t.join();
  wait_thread.join();
  if (broken) throw std::runtime_error("lost the router connection");
  return samples;
}

/// Counters and histograms off a worker's Prometheus exposition.
struct WorkerMetrics {
  std::map<std::string, double> counters;
  std::map<std::string, obs::HistogramSample> histograms;
  double completed = 0.0;
};

WorkerMetrics scrape_worker(int port) {
  WorkerMetrics wm;
  const auto m = rpc_once(port, "{\"cmd\":\"metrics\",\"format\":\"prometheus\"}");
  const std::string* text = m.get_string("text");
  if (!text) throw std::runtime_error("worker metrics without text");
  std::istringstream in(*text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto sp = line.rfind(' ');
    std::string name = line.substr(0, sp);
    if (name.rfind("gaplan_", 0) == 0) name.erase(0, 7);
    const double value = std::atof(line.c_str() + sp + 1);
    const auto bucket = name.find("_bucket{le=\"");
    if (bucket != std::string::npos) {
      auto& h = wm.histograms[name.substr(0, bucket)];
      const std::string le = name.substr(bucket + 12, name.size() - bucket - 14);
      if (le != "+Inf") h.bounds.push_back(std::atof(le.c_str()));
      // Cumulative counts; turned into per-bucket counts below.
      h.counts.push_back(static_cast<std::uint64_t>(value));
    } else if (name.size() > 6 && name.compare(name.size() - 6, 6, "_total") == 0) {
      wm.counters[name.substr(0, name.size() - 6)] = value;
    } else if (name.size() > 4 && name.compare(name.size() - 4, 4, "_sum") == 0) {
      wm.histograms[name.substr(0, name.size() - 4)].sum = value;
    } else if (name.size() > 6 && name.compare(name.size() - 6, 6, "_count") == 0) {
      wm.histograms[name.substr(0, name.size() - 6)].count =
          static_cast<std::uint64_t>(value);
    }
  }
  for (auto& [name, h] : wm.histograms) {
    for (std::size_t i = h.counts.size(); i-- > 1;) h.counts[i] -= h.counts[i - 1];
  }
  wm.completed = rpc_once(port, "{\"cmd\":\"stats\"}")
                     .get_number("completed")
                     .value_or(0.0);
  return wm;
}

obs::HistogramSample hist_diff(const WorkerMetrics& a, const WorkerMetrics& b,
                               const std::string& name) {
  obs::HistogramSample out;
  const auto ia = a.histograms.find(name);
  const auto ib = b.histograms.find(name);
  if (ib == b.histograms.end()) return out;
  out = ib->second;
  if (ia != a.histograms.end() && ia->second.counts.size() == out.counts.size()) {
    for (std::size_t i = 0; i < out.counts.size(); ++i) {
      out.counts[i] -= ia->second.counts[i];
    }
    out.count -= ia->second.count;
    out.sum -= ia->second.sum;
  }
  return out;
}

/// Router and worker views taken before or after one traced segment.
struct Mark {
  serve::WireMessage router;
  std::vector<WorkerMetrics> workers;
};

/// Per-layer metrics of the traced segments from the marks around each
/// (before, after, before, after, ...), the client-side samples, and the
/// side connection's pings.
void dist_layer_metrics(Outcome& out, const std::vector<Sample>& samples,
                        const std::vector<Mark>& marks,
                        const std::vector<double>& ping_us) {
  const auto pairs = marks.size() / 2;
  const auto rd = [&](const char* k) {
    double v = 0.0;
    for (std::size_t i = 0; i < pairs; ++i) {
      v += marks[2 * i + 1].router.get_number(k).value_or(0) -
           marks[2 * i].router.get_number(k).value_or(0);
    }
    return v;
  };
  std::vector<double> submit_ms;
  for (const Sample& s : samples) {
    if (!s.island) submit_ms.push_back(s.submit_ms);
  }
  const Quantiles sq = quantiles(submit_ms);
  out.layer("dist.ping_us", median(ping_us), "us");
  out.layer("dist.submit_ms.p50", sq.p50, "ms");
  out.layer("dist.submit_ms.p99", sq.tail, "ms");
  const double primary = rd("cache_hits_primary");
  const double fanout = rd("cache_hits_fanout");
  const double plain = rd("submitted") - rd("island_runs");
  out.layer("dist.hit_rate", plain > 0 ? (primary + fanout) / plain : 0.0, "frac");
  out.layer("dist.fanout_hit_share",
            primary + fanout > 0 ? fanout / (primary + fanout) : 0.0, "frac");
  out.layer("dist.retries", rd("retries"), "count");
  out.layer("dist.island_runs", rd("island_runs"), "count");
  out.layer("dist.island_restarts", rd("island_restarts"), "count");

  const std::size_t n_workers = marks.empty() ? 0 : marks[0].workers.size();
  const auto merge = [](obs::HistogramSample& into, const obs::HistogramSample& h) {
    if (into.counts.empty()) {
      into = h;
      return;
    }
    for (std::size_t i = 0; i < into.counts.size() && i < h.counts.size(); ++i) {
      into.counts[i] += h.counts[i];
    }
    into.count += h.count;
    into.sum += h.sum;
  };
  obs::HistogramSample queue_wait;
  obs::HistogramSample slice;
  std::vector<double> completed(n_workers, 0.0);
  for (std::size_t i = 0; i < pairs; ++i) {
    const auto& w0 = marks[2 * i].workers;
    const auto& w1 = marks[2 * i + 1].workers;
    for (std::size_t w = 0; w < n_workers; ++w) {
      merge(queue_wait, hist_diff(w0[w], w1[w], "server_queue_wait_ms"));
      merge(slice, hist_diff(w0[w], w1[w], "server_slice_ms"));
      completed[w] += w1[w].completed - w0[w].completed;
    }
  }
  out.layer("dist.worker_queue_wait_ms.p99",
            queue_wait.count ? queue_wait.percentile(0.99) : 0.0, "ms");
  out.layer("dist.worker_slice_ms.p50", slice.count ? slice.percentile(0.5) : 0.0,
            "ms");
  double max_c = 0.0;
  double sum_c = 0.0;
  for (const double c : completed) {
    max_c = std::max(max_c, c);
    sum_c += c;
  }
  out.layer("dist.load_imbalance",
            sum_c > 0 ? max_c / (sum_c / static_cast<double>(completed.size())) : 0.0,
            "ratio");

  out.report.push_back("\"dist_layer\": {\"submit_ms\": " + json_quantiles(sq) +
                       ", \"ping_samples\": " + std::to_string(ping_us.size()) +
                       ", \"worker_queue_wait_samples\": " +
                       std::to_string(queue_wait.count) + "}");
}

}  // namespace

void run_cluster_layers(const Options& opt, Outcome& out) {
  const std::size_t nproc = std::max(2u, std::thread::hardware_concurrency());
  // One connection is the idle side channel for pings; the rest carry
  // traffic, so the client never holds more than nproc.
  const std::size_t traffic_connections = nproc - 1;

  const Universe u = make_universe();
  Cluster cluster(opt.bin_dir);
  const int port = cluster.router_port();
  // Router pings on an idle side connection throughout, and router stats
  // plus every worker's metrics around each traced segment.
  std::vector<double> ping_us;
  std::atomic<bool> pinging{true};
  std::thread pinger([&] {
    gaplan::dist::Conn side;
    if (!side.connect("127.0.0.1", port)) return;
    while (pinging) {
      const double p0 = now_ms();
      std::string resp;
      if (!side.roundtrip("{\"cmd\":\"ping\"}", resp)) return;
      ping_us.push_back((now_ms() - p0) * 1000.0);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  std::vector<Mark> marks;
  Campaign c;
  try {
    // Traced segments but no rate sweep: the serve phase reports
    // max_rate_rps.
    c = run_campaign(
        u,
        [&](const std::vector<Arrival>& arrivals, SpanLog& spans) {
          return run_window(port, u, arrivals, traffic_connections, spans);
        },
        kReferenceRate, kRouterIslandShare, /*rates=*/{}, opt,
        [&](CampaignEvent ev) {
          if (ev != CampaignEvent::kTracedBegin && ev != CampaignEvent::kTracedEnd) {
            return;
          }
          Mark m;
          m.router = rpc_once(port, "{\"cmd\":\"stats\"}");
          for (const int wp : cluster.worker_ports()) {
            m.workers.push_back(scrape_worker(wp));
          }
          marks.push_back(std::move(m));
        });
  } catch (...) {
    pinging = false;
    pinger.join();
    throw;
  }
  pinging = false;
  pinger.join();
  cluster.stop();

  dist_layer_metrics(out, c.traced, marks, ping_us);
  // The cluster's own end-to-end view, from its untraced segments.
  std::vector<double> p50;
  for (const WindowStats& w : c.segments) p50.push_back(w.latency.p50);
  out.layer("dist.lat_p50_ms", quiet(p50), "ms");
  out.layer("dist.lat_p99_ms", c.ref.latency.tail, "ms");
  std::vector<std::pair<std::uint32_t, double>> island_ms;
  for (const Sample& s : c.reference) {
    if (s.island && s.ok) island_ms.emplace_back(s.key, s.latency_ms);
  }
  out.layer("island_lat_p50_ms", island_quiet_p50(island_ms), "ms");
  check_samples(u, c.all, out);
  out.report.push_back("\"cluster\": {\"reference\": " + json_windows({c.ref}) +
                       ", \"island_samples\": " + std::to_string(island_ms.size()) +
                       ", \"client_connections\": " +
                       std::to_string(traffic_connections + 1) + "}");
  out.report.push_back(json_span_totals(c.traced_spans, "cluster_spans"));
}

}  // namespace e2ebench
