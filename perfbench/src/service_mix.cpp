// service_mix: an in-process rebootd::Server (default configuration:
// telemetry and caches on) driven from this process over one connection.
//
// The mix is mostly `echo` (wire path, admission, pump), a quarter distinct
// `sat` jobs (DMM execution and queue wait), and a share of `sat` jobs
// repeating 8 keys with memo set and coalescing allowed (cache reads beside
// cache inserts, coalescing beside memo single-flight). The distinct `sat`
// jobs carry most of the server's CPU time, so the time the workers spend
// serving them, not how fast a thread wakes up, sets the latency of every
// request queued behind them. Every distinct `sat` instance is checked
// satisfiable before it is sent, so an unsolved answer is the solver's
// failure.
//
// Phases:
// - closed-loop trials of kTrialRequests requests, kWindow in flight on one
//   rebootctl::Client, each timed from its send, repeated until
//   kClosedShare of the run has passed. The medians over trials of the
//   throughput, p50 and p99 are the end-to-end figures: a stall of the
//   shared machine then moves one trial, not the figure.
// - open loops at kLowFraction and kHighFraction of that capacity: requests
//   sent on a seeded Poisson schedule whether or not earlier ones were
//   answered, each timed from its due time, so a stall of the server or of
//   the generator shows in every request queued behind it. They record the
//   svc_low_* / svc_high_* figures, how late the generator ran, and whether
//   p99 met kP99LimitMs with no growing backlog.
// - svc_max_rps: open loops on a ladder up from the high rate; the highest
//   rung whose p99 meets kP99LimitMs with no growing backlog. The ladder
//   probes past the limit on purpose, so its phases are reported but not
//   counted in the run's attempted / failed totals.
//
// Every phase has a fixed number of requests, so the memory the benchmark
// holds for its plans does not grow with the machine's speed.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/accelerator.h"
#include "core/random.h"
#include "harness.h"
#include "memcomputing/cnf.h"
#include "memcomputing/sat.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "rebootctl/client.h"
#include "rebootd/server.h"
#include "rebootd/workloads.h"
#include "scheduler/scheduler.h"

namespace perfbench {

namespace {

using rebooting::core::Rng;
namespace core = rebooting::core;
namespace mc = rebooting::memcomputing;
namespace net = rebooting::net;
namespace rebootd = rebooting::rebootd;
namespace rebootctl = rebooting::rebootctl;
namespace sched = rebooting::sched;

constexpr double kEchoShare = 0.70;
constexpr double kSatShare = 0.25;  // the rest repeats kMemoKeys sat keys
constexpr std::size_t kMemoKeys = 8;
// Random 3-SAT at clause ratio 3: a DMM solve takes about a millisecond and
// its time to solution has a light tail at this ratio.
constexpr double kSatVars = 100;
constexpr double kSatClauses = 300;

constexpr std::size_t kWindow = 128;
constexpr std::size_t kTrialRequests = 4000;
constexpr double kClosedShare = 0.6;
constexpr double kLowFraction = 0.2;
constexpr double kHighFraction = 0.5;
constexpr std::size_t kOpenRequests = 4000;
constexpr double kSearchGrowth = 1.15;
constexpr double kSearchCap = 1.5;
constexpr std::size_t kSearchRequests = 2000;
constexpr double kP99LimitMs = 25.0;
/// Latency that stands in for a failed request: it misses any limit.
constexpr double kFailedLatency = 60.0;
constexpr int kSetupReps = 41;
constexpr std::size_t kProbeFrames = 2000;

enum class Work { kEcho, kSat, kMemoSat };

struct Planned {
  std::int64_t due_ns = 0;  ///< offset from the phase start
  net::Request req;
  Work work = Work::kEcho;
  std::string expect;  ///< echo: the exact summary the server must return
  int memo_key = -1;
};

/// What happened to one planned request. The sender writes sent_ns, the
/// receiver the rest; neither reads the other's fields until both joined.
struct Outcome {
  std::int64_t sent_ns = 0;
  std::int64_t recv_ns = 0;
  std::uint32_t answers = 0;
  net::Status status = net::Status::kError;
  bool coalesced = false;
  bool wrong = false;
  double wall_seconds = 0.0;
  std::string summary;  ///< sat only
};

/// Seed of a random_ksat instance rebootd's `sat` work builds, drawn until
/// the instance is satisfiable (a complete DPLL search proves it).
std::uint64_t satisfiable_sat_seed(Rng& rng) {
  for (;;) {
    const std::uint64_t seed = 1 + rng.uniform_index(1ull << 40);
    Rng instance_rng(seed);
    const mc::Cnf cnf =
        mc::random_ksat(instance_rng, static_cast<std::size_t>(kSatVars),
                        static_cast<std::size_t>(kSatClauses), 3);
    if (mc::dpll(cnf).satisfied) return seed;
  }
}

net::Request sat_request(std::uint64_t seed) {
  net::Request req;
  req.method = "submit";
  req.tenant = "bench";
  req.work = "sat";
  req.params = Json::make_object({{"vars", Json::make_number(kSatVars)},
                                  {"clauses", Json::make_number(kSatClauses)},
                                  {"seed", Json::make_number(
                                               static_cast<double>(seed))}});
  return req;
}

/// `count` requests of the mix, ids from `first_id`, due on a Poisson
/// schedule at `rate` (closed loops ignore the due times).
std::vector<Planned> plan_phase(const std::vector<std::uint64_t>& memo_seeds,
                                std::uint64_t seed, std::uint64_t phase_index,
                                double rate, std::size_t count,
                                std::uint64_t first_id) {
  Rng rng = Rng::stream(seed ^ 0x94d049bb133111ebull, phase_index);
  std::vector<Planned> plan(count);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    Planned& p = plan[i];
    t += -std::log(1.0 - rng.uniform()) / rate;
    p.due_ns = static_cast<std::int64_t>(t * 1e9);
    const double u = rng.uniform();
    if (u < kEchoShare) {
      p.work = Work::kEcho;
      p.req.method = "submit";
      p.req.tenant = "bench";
      p.req.work = "echo";
      p.req.params = Json::make_object(
          {{"n", Json::make_number(static_cast<double>(first_id + i))},
           {"pad", Json::make_number(static_cast<double>(rng.uniform_index(
                       1ull << 30)))}});
      p.expect = "echo " + core::json_dump(p.req.params);
    } else if (u < kEchoShare + kSatShare) {
      p.work = Work::kSat;
      p.req = sat_request(satisfiable_sat_seed(rng));
    } else {
      p.work = Work::kMemoSat;
      p.memo_key = static_cast<int>(rng.uniform_index(kMemoKeys));
      p.req = sat_request(memo_seeds[static_cast<std::size_t>(p.memo_key)]);
      p.req.memo = true;
    }
    p.req.id = first_id + i;
  }
  return plan;
}

struct PhaseResult {
  std::string name;
  double rate = 0.0;  ///< offered (open loop) or achieved (closed loop)
  Phase counts;
  Samples latency;  ///< failed requests at kFailedLatency
  Samples late;     ///< generator lateness: sent - due
  Samples queue_wait;  ///< (recv - sent) - server-reported wall_seconds
  std::uint64_t coalesced = 0;
  bool backlog_growing = false;
  bool pass = false;
  std::vector<net::Request> sample_requests;
  std::vector<net::Response> sample_responses;
};

class LoadGenerator {
 public:
  LoadGenerator(std::uint16_t port, std::uint64_t seed, Report& report)
      : port_(port), seed_(seed), report_(report) {
    Rng rng = Rng::stream(seed ^ 0x2545f4914f6cdd1dull, 0);
    for (std::size_t k = 0; k < kMemoKeys; ++k)
      memo_seeds_.push_back(satisfiable_sat_seed(rng));
  }

  /// Open loop: `count` Poisson arrivals at `rate`.
  PhaseResult run_open(const std::string& name, double rate,
                       std::size_t count = kOpenRequests);
  /// Closed loop: kTrialRequests requests with kWindow in flight; the
  /// result's rate is the answers per second.
  PhaseResult run_closed(const std::string& name);

 private:
  void prepare(double rate, std::size_t count);
  /// Files one response; true when it is the first answer to its request.
  bool record(net::Response&& resp, std::int64_t recv_ns,
              std::int64_t decoded_ns);
  PhaseResult evaluate(const std::string& name, double rate);
  void send_loop(net::Socket& sock);
  void receive_loop(net::Socket& sock);

  std::uint16_t port_;
  std::uint64_t seed_;
  Report& report_;
  std::vector<std::uint64_t> memo_seeds_;
  std::uint64_t phase_index_ = 0;
  std::uint64_t next_id_ = 1;
  std::map<int, std::string> memo_summaries_;

  // Per-phase state shared with the load threads (set before they start,
  // read after they are joined).
  std::vector<Planned> plan_;
  std::vector<Outcome> out_;
  std::uint64_t base_id_ = 0;
  std::int64_t start_ns_ = 0;
  std::atomic<std::size_t> answered_{0};
  std::atomic<std::uint64_t> unknown_ids_{0};
  std::atomic<std::uint64_t> bad_frames_{0};
};

void LoadGenerator::send_loop(net::Socket& sock) {
  for (std::size_t i = 0; i < plan_.size(); ++i) {
    const std::int64_t due = start_ns_ + plan_[i].due_ns;
    const std::int64_t ahead = due - now_ns();
    if (ahead > 50'000)
      std::this_thread::sleep_for(std::chrono::nanoseconds(ahead - 20'000));
    const std::uint64_t id = plan_[i].req.id;
    const std::uint64_t root = request_span_id(id);
    out_[i].sent_ns = now_ns();
    std::string frame;
    {
      SpanScope span("net.encode_request", id, root);
      frame = net::encode_request(plan_[i].req);
    }
    SpanScope span("net.write_frame", id, root);
    if (!net::write_frame(sock, frame)) return;
  }
}

void LoadGenerator::receive_loop(net::Socket& sock) {
  std::string frame;
  while (answered_.load(std::memory_order_acquire) < plan_.size()) {
    if (net::read_frame(sock, &frame, net::kMaxFrameBytes) !=
        net::FrameRead::kFrame)
      return;
    const std::int64_t recv_ns = now_ns();
    std::optional<net::Response> resp = net::decode_response(frame);
    const std::int64_t decoded_ns = now_ns();
    if (!resp) {
      ++bad_frames_;
      continue;
    }
    record(std::move(*resp), recv_ns, decoded_ns);
  }
}

void LoadGenerator::prepare(double rate, std::size_t count) {
  plan_ = plan_phase(memo_seeds_, seed_, phase_index_++, rate, count,
                     next_id_);
  base_id_ = next_id_;
  next_id_ += plan_.size() + 1;
  out_.assign(plan_.size(), Outcome{});
  answered_ = 0;
  unknown_ids_ = 0;
  bad_frames_ = 0;
}

PhaseResult LoadGenerator::run_open(const std::string& name, double rate,
                                    std::size_t count) {
  prepare(rate, count);
  std::string error;
  net::Socket sock = net::connect_to("127.0.0.1", port_, &error);
  if (!sock.valid())
    throw std::runtime_error("service: connect failed: " + error);
  start_ns_ = now_ns() + 2'000'000;  // let the threads start first
  std::thread receiver([this, &sock] { receive_loop(sock); });
  std::thread sender([this, &sock] { send_loop(sock); });
  sender.join();
  // Drain: wait for every answer, or give up after a grace period.
  const auto give_up = Clock::now() + std::chrono::seconds(10);
  while (answered_.load(std::memory_order_acquire) < plan_.size() &&
         Clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  sock.shutdown_both();
  receiver.join();
  sock.close();
  return evaluate(name, rate);
}

PhaseResult LoadGenerator::run_closed(const std::string& name) {
  prepare(1.0, kTrialRequests);
  rebootctl::Client client;
  std::string error;
  if (!client.connect("127.0.0.1", port_, &error))
    throw std::runtime_error("service: connect failed: " + error);
  start_ns_ = now_ns();
  std::size_t sent = 0;
  while (answered_ < plan_.size()) {
    while (sent < plan_.size() && sent - answered_ < kWindow) {
      // A closed loop times each request from its own send.
      out_[sent].sent_ns = now_ns();
      plan_[sent].due_ns = out_[sent].sent_ns - start_ns_;
      if (!client.send(plan_[sent].req, &error))
        throw std::runtime_error("service: send failed: " + error);
      ++sent;
    }
    std::optional<net::Response> resp = client.recv(&error);
    if (!resp) break;
    const std::int64_t recv_ns = now_ns();
    record(std::move(*resp), recv_ns, recv_ns);
  }
  const double elapsed = 1e-9 * static_cast<double>(now_ns() - start_ns_);
  return evaluate(name, static_cast<double>(answered_) / elapsed);
}

bool LoadGenerator::record(net::Response&& resp, std::int64_t recv_ns,
                           std::int64_t decoded_ns) {
  const std::uint64_t slot = resp.id - base_id_;
  if (resp.id < base_id_ || slot >= plan_.size()) {
    ++unknown_ids_;
    return false;
  }
  Outcome& o = out_[slot];
  if (o.answers++ > 0) return false;  // a duplicate; counted at the end
  record_span("net.decode_response", recv_ns, decoded_ns, 0,
              request_span_id(resp.id), resp.id);
  record_span("svc.request", start_ns_ + plan_[slot].due_ns, decoded_ns,
              request_span_id(resp.id), 0, resp.id);
  o.recv_ns = recv_ns;
  o.status = resp.status;
  o.coalesced = resp.coalesced;
  o.wall_seconds = resp.wall_seconds;
  const Planned& p = plan_[slot];
  if (p.work == Work::kEcho)
    o.wrong = resp.status == net::Status::kOk && resp.summary != p.expect;
  else
    o.summary = std::move(resp.summary);
  answered_.fetch_add(1, std::memory_order_release);
  return true;
}

PhaseResult LoadGenerator::evaluate(const std::string& name, double rate) {
  PhaseResult r;
  r.name = name;
  r.rate = rate;
  r.counts.name = name;
  report_.check(unknown_ids_ == 0, "service: response with an unknown id");
  report_.check(bad_frames_ == 0, "service: undecodable response frame");
  std::vector<double> first_quarter, last_quarter;
  for (std::size_t i = 0; i < plan_.size(); ++i) {
    const Planned& p = plan_[i];
    Outcome& o = out_[i];
    Phase& c = r.counts;
    ++c.attempted;
    report_.check(o.answers <= 1, "service: request answered twice");
    report_.check(o.answers >= 1, "service: request never answered");
    report_.check(!o.wrong, "service: echo body does not match");
    bool ok = false;
    if (o.answers == 0) {
      ++c.errors;
    } else if (o.status == net::Status::kOverloaded ||
               o.status == net::Status::kQuotaExceeded) {
      ++c.refused;
    } else if (o.status != net::Status::kOk) {
      ++c.errors;
    } else if (o.wrong) {
      ++c.wrong;
    } else if (p.work != Work::kEcho &&
               o.summary.rfind("sat: satisfied", 0) != 0) {
      ++c.unsolved;
    } else {
      ok = true;
      ++c.succeeded;
    }
    if (ok && p.work == Work::kMemoSat) {
      const auto [it, fresh] = memo_summaries_.emplace(p.memo_key, o.summary);
      report_.check(fresh || it->second == o.summary,
                    "service: a repeated sat key got a different answer");
    }
    const double latency =
        ok ? 1e-9 * static_cast<double>(o.recv_ns - start_ns_ - p.due_ns)
           : kFailedLatency;
    r.latency.add(latency);
    r.late.add(1e-9 * static_cast<double>(o.sent_ns - start_ns_ - p.due_ns));
    if (ok)
      r.queue_wait.add(1e-9 * static_cast<double>(o.recv_ns - o.sent_ns) -
                       o.wall_seconds);
    if (o.coalesced) ++r.coalesced;
    if (4 * i < plan_.size()) first_quarter.push_back(latency);
    if (4 * i >= 3 * plan_.size()) last_quarter.push_back(latency);
    if (r.sample_requests.size() < kProbeFrames && o.answers == 1) {
      r.sample_requests.push_back(p.req);
      net::Response resp;
      resp.id = p.req.id;
      resp.status = o.status;
      resp.summary = p.work == Work::kEcho ? p.expect : o.summary;
      resp.coalesced = o.coalesced;
      resp.wall_seconds = o.wall_seconds;
      r.sample_responses.push_back(std::move(resp));
    }
  }
  // A backlog that grows during the phase shows as latency rising from the
  // first quarter of the schedule to the last.
  r.backlog_growing =
      median_of(last_quarter) > 2.0 * median_of(first_quarter) + 1e-3;
  // Failed requests sit at kFailedLatency, so more than 1% of them fails
  // the limit by themselves.
  r.pass = !r.backlog_growing && r.latency.quantile(0.99) <= kP99LimitMs * 1e-3;
  return r;
}

/// Server set-up as a user meets it: construct, start, and see a ping
/// answered.
std::unique_ptr<rebootd::Server> start_server() {
  auto server = std::make_unique<rebootd::Server>();
  std::string error;
  if (!server->start(&error))
    throw std::runtime_error("service: server start failed: " + error);
  rebootctl::Client client;
  if (!client.connect("127.0.0.1", server->port(), &error))
    throw std::runtime_error("service: connect failed: " + error);
  net::Request ping;
  ping.id = 1;
  ping.method = "ping";
  const auto resp = client.call(ping, &error);
  if (!resp || resp->status != net::Status::kOk)
    throw std::runtime_error("service: ping failed: " + error);
  return server;
}

std::string phase_note(const PhaseResult& r) {
  return "rate=" + core::json_number(r.rate) +
         " p50_ms=" + core::json_number(1e3 * r.latency.median()) +
         " p99_ms=" + core::json_number(1e3 * r.latency.quantile(0.99)) +
         " late_p99_ms=" + core::json_number(1e3 * r.late.quantile(0.99)) +
         (r.backlog_growing ? " backlog_growing" : "") +
         (r.pass ? " pass" : " over_limit");
}

void add_phase(Report& report, const PhaseResult& r, bool counted = true) {
  Phase p = r.counts;
  p.counted = counted;
  p.note = phase_note(r);
  report.phases.push_back(p);
}

/// Closed-loop trials, the low and high open loops, then the ladder.
struct Procedure {
  std::vector<double> trial_rps, trial_p50, trial_p99;
  std::uint64_t refused = 0;
  std::uint64_t coalesced = 0;
  PhaseResult low, high;
  double max_rps = 0.0;  ///< 0 when even the high rate misses the limit

  double capacity() const { return median_of(trial_rps); }
};

Procedure run_procedure(LoadGenerator& load, double seconds, Report& report) {
  Procedure proc;
  Phase closed;
  closed.name = "closed";
  const auto start = Clock::now();
  while (proc.trial_rps.empty() ||
         seconds_since(start) < kClosedShare * seconds) {
    const PhaseResult r = load.run_closed("closed");
    proc.trial_rps.push_back(r.rate);
    proc.trial_p50.push_back(r.latency.median());
    proc.trial_p99.push_back(r.latency.quantile(0.99));
    closed.attempted += r.counts.attempted;
    closed.succeeded += r.counts.succeeded;
    closed.refused += r.counts.refused;
    closed.errors += r.counts.errors;
    closed.wrong += r.counts.wrong;
    closed.unsolved += r.counts.unsolved;
    proc.coalesced += r.coalesced;
  }
  closed.note = std::to_string(proc.trial_rps.size()) + " trials of " +
                std::to_string(kTrialRequests) + " requests, window " +
                std::to_string(kWindow) +
                " capacity_rps=" + core::json_number(proc.capacity()) +
                " trial_rps_min=" +
                core::json_number(*std::min_element(proc.trial_rps.begin(),
                                                    proc.trial_rps.end())) +
                " trial_rps_max=" +
                core::json_number(*std::max_element(proc.trial_rps.begin(),
                                                    proc.trial_rps.end()));
  report.phases.push_back(closed);
  proc.refused += closed.refused;

  proc.low = load.run_open("low", kLowFraction * proc.capacity());
  proc.high = load.run_open("high", kHighFraction * proc.capacity());
  for (const PhaseResult* r : {&proc.low, &proc.high}) {
    add_phase(report, *r);
    proc.refused += r->counts.refused;
    proc.coalesced += r->coalesced;
  }
  if (proc.high.pass) proc.max_rps = proc.high.rate;
  for (double rate = kSearchGrowth * proc.high.rate;
       proc.high.pass && rate <= kSearchCap * proc.capacity();
       rate *= kSearchGrowth) {
    const PhaseResult r = load.run_open("search", rate, kSearchRequests);
    add_phase(report, r, false);
    if (!r.pass) break;
    proc.max_rps = rate;
  }
  return proc;
}

/// A number of the `status` body; nullopt when the server did not report it.
std::optional<double> status_number(const Json& body,
                                    std::initializer_list<const char*> path) {
  const Json* v = &body;
  for (const char* key : path) {
    if (!v->is_object() || !v->contains(key)) return std::nullopt;
    v = &v->at(key);
  }
  if (v->type() != Json::Type::kNumber) return std::nullopt;
  return v->number();
}

/// Sets a per-layer metric from the `status` body. A number the server did
/// not report is left unset, so run.py fails the run instead of reading 0.
void set_from_status(Report& report, const std::string& name,
                     const Json& body,
                     std::initializer_list<const char*> path) {
  if (const auto v = status_number(body, path))
    report.set(report.layer, name, *v);
}

void set_hit_frac(Report& report, const std::string& name, const Json& body,
                  const char* cache) {
  const auto hits = status_number(body, {"cache", cache, "hits"});
  const auto misses = status_number(body, {"cache", cache, "misses"});
  if (hits && misses && *hits + *misses > 0.0)
    report.set(report.layer, name, *hits / (*hits + *misses));
}

void probe_layers(std::uint16_t port, const Procedure& proc, Report& report) {
  const PhaseResult& high = proc.high;
  // Server counters first: the direct scheduler below registers a memo
  // cache of the same name.
  rebootctl::Client client;
  std::string error;
  Json body = Json::make_null();
  if (client.connect("127.0.0.1", port, &error)) {
    net::Request status;
    status.id = 1;
    status.method = "status";
    if (const auto resp = client.call(status, &error)) body = resp->body;
  }
  report.check(body.is_object(), "service: status call failed");
  set_from_status(report, "sched.busy_s", body,
                  {"pools", "classical-cpu", "busy_seconds"});
  set_from_status(report, "sched.jobs", body,
                  {"pools", "classical-cpu", "jobs_completed"});
  set_from_status(report, "sched.memo_hits", body, {"sched", "memo_hits"});
  set_from_status(report, "sched.memo_riders", body,
                  {"sched", "memo_riders"});
  set_hit_frac(report, "cache.sched_memo.hit_frac", body, "sched.memo");
  set_hit_frac(report, "cache.dmm_solve.hit_frac", body, "dmm.solve");
  // Codec cost on the workload's own frames.
  std::vector<double> encode_us, decode_us;
  double req_bytes = 0.0, resp_bytes = 0.0;
  for (std::size_t k = 0; k < high.sample_requests.size(); ++k) {
    SpanScope op("bench.probe", k + 1);
    auto t0 = Clock::now();
    std::string req_frame, resp_frame;
    {
      SpanScope span("net.encode");
      req_frame = net::encode_request(high.sample_requests[k]);
      resp_frame = net::encode_response(high.sample_responses[k]);
    }
    encode_us.push_back(1e6 * seconds_since(t0));
    t0 = Clock::now();
    {
      SpanScope span("net.decode");
      const auto a = net::decode_request(req_frame);
      const auto b = net::decode_response(resp_frame);
      report.check(a && b && a->id == b->id,
                   "service: frame does not round-trip through the codec");
    }
    decode_us.push_back(1e6 * seconds_since(t0));
    req_bytes += static_cast<double>(req_frame.size());
    resp_bytes += static_cast<double>(resp_frame.size());
  }
  if (!high.sample_requests.empty()) {
    const double frames = static_cast<double>(high.sample_requests.size());
    report.set(report.layer, "net.encode_us", median_of(encode_us));
    report.set(report.layer, "net.decode_us", median_of(decode_us));
    report.set(report.layer, "net.req_bytes", req_bytes / frames);
    report.set(report.layer, "net.resp_bytes", resp_bytes / frames);
  }

  // The same payload mix submitted straight to a Scheduler, one at a time.
  {
    sched::Scheduler scheduler;
    scheduler.add_pool(core::AcceleratorKind::kClassicalCpu, 2,
                       core::CpuAccelerator::factory());
    Samples direct;
    for (std::size_t k = 0; k < high.sample_requests.size(); ++k) {
      std::string error;
      auto payload = rebootd::build_workload(high.sample_requests[k], &error);
      if (!payload) continue;
      const auto t0 = Clock::now();
      SpanScope span("sched.submit", k + 1);
      scheduler
          .submit("bench", core::AcceleratorKind::kClassicalCpu,
                  std::move(*payload))
          .get();
      direct.add(seconds_since(t0));
    }
    if (direct.size() > 0)
      report.set(report.layer, "sched.direct_p50_us", 1e6 * direct.median());
  }
  if (high.queue_wait.size() > 0)
    report.set(report.layer, "sched.queue_wait_p50_us",
               1e6 * high.queue_wait.median());

  report.set(report.layer, "svc.coalesced", static_cast<double>(proc.coalesced));
  report.set(report.layer, "svc.refused", static_cast<double>(proc.refused));
  report.set(report.layer, "svc.gen_late_p99_ms",
             1e3 * high.late.quantile(0.99));
}

void report_e2e(Report& report, const Procedure& proc) {
  report.set(report.e2e, "ops_per_s", proc.capacity());
  report.set(report.e2e, "op_p50_ms", 1e3 * median_of(proc.trial_p50));
  report.set(report.e2e, "op_tail_ms", 1e3 * median_of(proc.trial_p99));
  report.set(report.info, "op_tail_percentile", 99.0);
  report.set(report.info, "op_samples",
             static_cast<double>(kTrialRequests * proc.trial_rps.size()));
  report.set(report.info, "closed_trials",
             static_cast<double>(proc.trial_rps.size()));
  report.set(report.info, "p99_limit_ms", kP99LimitMs);
  report.set(report.info, "svc_max_rps", proc.max_rps);
  for (const PhaseResult* r : {&proc.low, &proc.high}) {
    const std::string name = "svc_" + r->name;
    report.set(report.info, name + "_rps", r->rate);
    report.set(report.info, name + "_p50_ms", 1e3 * r->latency.median());
    report.set(report.info, name + "_p99_ms", 1e3 * r->latency.quantile(0.99));
    report.set(report.info, name + "_gen_late_p99_ms",
               1e3 * r->late.quantile(0.99));
    report.set(report.info, name + "_meets_limit", r->pass ? 1.0 : 0.0);
  }
}

}  // namespace

void run_service_mix(const Args& args, Report& report) {
  std::unique_ptr<rebootd::Server> server;
  std::vector<double> setup_times;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    // Destroy the previous server first: result caches register their stats
    // by name, and destroying a server unregisters that name even when a
    // newer server registered it since.
    server.reset();
    const auto t0 = Clock::now();
    server = start_server();
    setup_times.push_back(seconds_since(t0));
  }
  report.set(report.e2e, "setup_s", median_of(setup_times));

  LoadGenerator load(server->port(), args.seed, report);
  if (!args.trace) {
    report_e2e(report, run_procedure(load, args.seconds, report));
  } else {
    // The untraced procedure first (it finds the rates), then the open loops
    // again with tracing on.
    const Procedure plain = run_procedure(load, args.seconds / 2, report);
    set_tracing(true);
    Procedure traced = plain;
    traced.low = load.run_open("traced_low", plain.low.rate);
    traced.high = load.run_open("traced_high", plain.high.rate);
    for (const PhaseResult* r : {&traced.low, &traced.high}) {
      add_phase(report, *r);
      traced.refused += r->counts.refused;
      traced.coalesced += r->coalesced;
    }
    report.set(report.layer, "trace.overhead_pct",
               overhead_pct(plain.low.latency, traced.low.latency));
    probe_layers(server->port(), traced, report);
    set_tracing(false);
  }
  server->stop();
}

}  // namespace perfbench
