// rebootd loopback throughput bench — gates the service tier's wire path
// (framing, decode, admission, scheduler round trip, response fan-in) with a
// machine-readable BENCH_service.json.
//
// Setup: one in-process Server on 127.0.0.1:<ephemeral>, classical-cpu pool
// only, coalescing bypassed (no_coalesce on every request). kThreads client
// threads each hold one pipelined connection with kWindow "echo" submits in
// flight and exact accounting: at the end, sent == received and every
// response id was seen exactly once.
//
// The gate is deliberately conservative — kMinRps is an order of magnitude
// below what the loopback path sustains on the 4-vCPU CI runners — because
// this bench exists to catch a collapse of the pipelined path (a reader
// blocking on the queue, a pump serializing on the wrong lock), not to chase
// a peak number. Latency quantiles come from the server-side
// net.request_seconds histogram via a status call, the same numbers the
// loadgen soak prints.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench_util.h"
#include "core/json.h"
#include "core/table.h"
#include "net/protocol.h"
#include "rebootctl/client.h"
#include "rebootd/server.h"

using namespace rebooting;
using core::Real;

namespace {

constexpr std::size_t kThreads = 2;
constexpr std::size_t kWindow = 32;
constexpr double kSeconds = 2.0;
constexpr Real kMinRps = 2000.0;

using Clock = std::chrono::steady_clock;

struct WorkerTally {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t other = 0;
  std::uint64_t transport_errors = 0;
  std::uint64_t duplicates = 0;
};

net::Request echo_request(std::uint64_t id) {
  net::Request req;
  req.id = id;
  req.method = "submit";
  req.tenant = "bench";
  req.work = "echo";
  req.no_coalesce = true;
  return req;
}

void worker(std::uint16_t port, std::size_t index, Clock::time_point deadline,
            WorkerTally* tally) {
  rebootctl::Client client;
  std::string error;
  if (!client.connect("127.0.0.1", port, &error)) {
    std::cerr << "worker " << index << ": connect failed: " << error << '\n';
    tally->transport_errors = 1;
    return;
  }

  std::unordered_set<std::uint64_t> outstanding;
  std::uint64_t seq = 0;
  const auto take_one = [&]() -> bool {
    const auto resp = client.recv(&error);
    if (!resp.has_value()) {
      tally->transport_errors += outstanding.size();
      outstanding.clear();
      return false;
    }
    if (outstanding.erase(resp->id) == 0) {
      // Seen twice or never sent — either way the accounting is broken.
      ++tally->duplicates;
      return true;
    }
    ++(resp->status == net::Status::kOk ? tally->ok : tally->other);
    return true;
  };

  while (Clock::now() < deadline) {
    while (outstanding.size() < kWindow) {
      const std::uint64_t id =
          (static_cast<std::uint64_t>(index) << 40) | ++seq;
      if (!client.send(echo_request(id), &error)) {
        tally->transport_errors += outstanding.size() + 1;
        outstanding.clear();
        return;
      }
      outstanding.insert(id);
      ++tally->sent;
    }
    if (!take_one()) return;
  }
  while (!outstanding.empty())
    if (!take_one()) return;
  client.close();
}

Real body_number(const core::JsonValue& body, const char* group,
                 const char* field) {
  return body.at(group).at(field).number();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      rebooting::bench::artifact_path(argc, argv, "BENCH_service.json");
  core::print_banner(std::cout,
                     "rebootd loopback echo — pipelined wire-path throughput");
  std::cout << "\n" << kThreads << " connections x window " << kWindow
            << ", " << kSeconds << " s, gate: >= " << kMinRps << " req/s\n\n";

  rebootd::ServerConfig config;
  config.cpu_workers = 2;
  config.queue_capacity = 512;
  rebootd::Server server(config);
  std::string error;
  if (!server.start(&error)) {
    std::cerr << "server start failed: " << error << '\n';
    return 3;
  }

  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(kSeconds));
  std::vector<WorkerTally> tallies(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i)
    threads.emplace_back(worker, server.port(), i, deadline, &tallies[i]);
  for (auto& t : threads) t.join();
  const Real elapsed =
      std::chrono::duration<Real>(Clock::now() - start).count();

  WorkerTally total;
  for (const auto& t : tallies) {
    total.sent += t.sent;
    total.ok += t.ok;
    total.other += t.other;
    total.transport_errors += t.transport_errors;
    total.duplicates += t.duplicates;
  }
  const std::uint64_t accounted =
      total.ok + total.other + total.transport_errors;
  const Real rps = static_cast<Real>(total.ok) / elapsed;

  // Server-side quantiles over the whole run, then a clean stop.
  Real p50 = 0.0, p99 = 0.0, server_count = 0.0;
  {
    rebootctl::Client client;
    if (client.connect("127.0.0.1", server.port(), &error)) {
      net::Request req;
      req.id = 1;
      req.method = "status";
      if (const auto resp = client.call(req, &error);
          resp.has_value() && resp->status == net::Status::kOk) {
        p50 = body_number(resp->body, "latency", "p50_seconds");
        p99 = body_number(resp->body, "latency", "p99_seconds");
        server_count = body_number(resp->body, "latency", "count");
      }
    }
  }
  server.stop();

  const bool balanced = accounted == total.sent && total.duplicates == 0;
  const bool fast_enough = rps >= kMinRps;

  core::Table table({"metric", "value"}, 3);
  table.add_row({std::string("ok responses"), static_cast<Real>(total.ok)});
  table.add_row({std::string("non-ok responses"),
                 static_cast<Real>(total.other)});
  table.add_row({std::string("transport errors"),
                 static_cast<Real>(total.transport_errors)});
  table.add_row({std::string("throughput [req/s]"), rps});
  table.add_row({std::string("server p50 [ms]"), p50 * 1e3});
  table.add_row({std::string("server p99 [ms]"), p99 * 1e3});
  table.print(std::cout);
  std::cout << "\naccounting: " << (balanced ? "BALANCED" : "BROKEN")
            << " (" << total.sent << " sent, " << accounted
            << " accounted, server histogram count " << server_count << ")\n"
            << "throughput gate: " << (fast_enough ? "PASS" : "FAIL") << '\n';

  {
    std::ofstream json(out_path);
    json << "{\n"
         << "  \"bench\": " << core::json_quote("service_echo") << ",\n"
         << "  \"threads\": "
         << core::json_number(static_cast<std::int64_t>(kThreads)) << ",\n"
         << "  \"window\": "
         << core::json_number(static_cast<std::int64_t>(kWindow)) << ",\n"
         << "  \"seconds\": " << core::json_number(elapsed) << ",\n"
         << "  \"ok\": "
         << core::json_number(static_cast<std::int64_t>(total.ok)) << ",\n"
         << "  \"non_ok\": "
         << core::json_number(static_cast<std::int64_t>(total.other))
         << ",\n"
         << "  \"transport_errors\": "
         << core::json_number(
                static_cast<std::int64_t>(total.transport_errors))
         << ",\n"
         << "  \"requests_per_second\": " << core::json_number(rps) << ",\n"
         << "  \"server_p50_seconds\": " << core::json_number(p50) << ",\n"
         << "  \"server_p99_seconds\": " << core::json_number(p99) << ",\n"
         << "  \"min_rps_gate\": " << core::json_number(kMinRps) << ",\n"
         << "  \"accounting_balanced\": " << (balanced ? "true" : "false")
         << ",\n"
         << "  \"throughput_gate_pass\": " << (fast_enough ? "true" : "false")
         << "\n}\n";
    std::cout << "wrote " << out_path << '\n';
  }

  if (!balanced) return 1;
  if (!fast_enough) return 2;
  return 0;
}
