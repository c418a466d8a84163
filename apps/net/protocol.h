// The rebootd wire protocol: JSON documents inside the length-prefixed
// frames of socket.h. One request frame yields exactly one response frame
// with the same `id` — the invariant the loadgen accounting leans on ("every
// request ends as success, typed error, or rejection; none lost").
//
// Request (client -> server):
//   {"v":1, "id":7, "method":"submit", "tenant":"alice",
//    "work":"spin", "kind":"classical-cpu", "params":{"micros":50},
//    "priority":0, "deadline_ms":250, "no_coalesce":false,
//    "trace_id":"81985529216486895", "parent_span":"7"}
//
//   methods: "ping"      liveness probe; params-free
//            "status"    full ops snapshot (scheduler pools, tenants,
//                        latency quantiles, net.* counters)
//            "metrics"   one full registry snapshot: counters, gauges,
//                        histogram quantiles, counter rates from the
//                        server's telemetry::Sampler, Scheduler::stats()
//            "watch"     server-push subscription: the server immediately
//                        answers with one `metrics`-shaped frame marked
//                        "streaming":true, then keeps pushing one frame per
//                        params.interval_ms (default 500, clamped to
//                        [20, 60000]) until the client closes or the server
//                        stops — the terminal frame (streaming absent) is
//                        the subscription's *response* in the
//                        one-response-per-request accounting sense
//            "submit"    run workload `work` on the `kind` pool
//            "shutdown"  ask the daemon to stop (it finishes the reply first)
//
//   trace_id/parent_span (optional, u64s as decimal strings — they must
//   round-trip exactly, and 2^53 is where JSON numbers stop doing that):
//   the client's distributed trace context. A rebootd that receives a
//   trace_id continues the "net.request" flow chain under *that* id instead
//   of a server-local one and echoes it in every response frame, so
//   per-process Chrome traces stitch into one cross-process timeline
//   (scripts/trace_merge.py). parent_span names the client-side span the
//   submit belongs to; it is carried for the merged view, never interpreted.
//
// Response (server -> client):
//   {"id":7, "status":"ok", "summary":"...", "attempts":1,
//    "degraded":false, "coalesced":false, "wall_seconds":1.2e-4,
//    "trace_id":"81985529216486895", "streaming":false,
//    "metrics":{"work.spin_micros":50}, "body":{...}}
//
// `status` is a closed vocabulary (Status below) so clients switch on a
// type, not on prose: the admission-control rejections ("overloaded",
// "quota_exceeded") are first-class outcomes, distinct from a workload that
// ran and failed ("failed") and from transport-level trouble (which has no
// response at all — the client library surfaces it separately).
//
// `streaming` (encoded only when true) marks a non-terminal `watch` frame:
// more frames with the same id follow. Every subscription still ends in
// exactly one terminal frame — normally "shutting_down" when the server
// stops — so the "every request ends exactly once" invariant holds for
// streams too.
//
// Parsing is strict about the types of known fields and silent about unknown
// ones (forward compatibility across shard versions); decode_* return
// nullopt with a diagnostic instead of throwing, since every byte here
// crossed a trust boundary. Numbers bound for integers or durations are
// range-checked before any conversion: `id` and `attempts` must be integers
// in [0, 2^53], `priority` an integer in [-2^30, 2^30], and `deadline_ms`
// finite, > 0, and small enough for a steady_clock duration.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "core/accelerator.h"
#include "core/json.h"

namespace rebooting::net {

inline constexpr int kProtocolVersion = 1;
/// Default ceiling for one frame; a 32-bit length field must never translate
/// into a 4 GiB allocation on behalf of an unauthenticated peer.
inline constexpr std::size_t kMaxFrameBytes = 1u << 20;

struct Request {
  std::uint64_t id = 0;
  std::string method;
  std::string tenant = "default";
  /// Distributed trace context (0 = none). See the header comment; stamped
  /// by rebootctl::Client when the client process is tracing.
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
  // --- submit fields (ignored for other methods) -------------------------
  std::string work;
  core::AcceleratorKind kind = core::AcceleratorKind::kClassicalCpu;
  core::JsonValue params;  ///< object (or null for none); also carries the
                           ///< `watch` verb's interval_ms
  int priority = 0;
  std::optional<double> deadline_ms;
  bool no_coalesce = false;
  /// Opt into server-side memoization (DESIGN.md §14): the submit carries a
  /// JobOptions::memo_key derived from (kind, work, params) — tenant and
  /// priority excluded, so identical work collapses across tenants — and an
  /// identical already-cached or in-flight submit replays/shares its result.
  /// Unlike coalescing (a scheduling-window optimization), memoization
  /// persists across time in the server's result cache.
  bool memo = false;
};

/// Typed response outcomes. kOk/kFailed mean the workload executed; the rest
/// mean it never ran (or never will).
enum class Status {
  kOk,
  kFailed,          ///< executed, workload reported failure
  kOverloaded,      ///< admission control / backpressure rejection
  kQuotaExceeded,   ///< tenant token bucket empty (see retry_after_ms)
  kDeadlineMissed,  ///< queued past its deadline
  kCancelled,
  kShuttingDown,  ///< arrived or was queued while the daemon stopped
  kBadRequest,    ///< malformed frame/JSON/fields, unknown work or pool
  kError,         ///< internal failure (workload threw, ...)
};

std::string to_string(Status status);
std::optional<Status> status_from_string(const std::string& name);

struct Response {
  std::uint64_t id = 0;
  Status status = Status::kError;
  std::string summary;
  std::uint64_t attempts = 0;
  bool degraded = false;
  bool coalesced = false;  ///< answered by a collapsed identical job
  bool streaming = false;  ///< non-terminal watch frame; more follow
  std::uint64_t trace_id = 0;  ///< echo of the request's context (0 = none)
  double wall_seconds = 0.0;
  std::optional<double> retry_after_ms;  ///< with kQuotaExceeded/kOverloaded
  std::map<std::string, core::Real> metrics;
  core::JsonValue body;  ///< method-specific payload (status snapshot)
};

std::string encode_request(const Request& req);
std::optional<Request> decode_request(const std::string& frame,
                                      std::string* error = nullptr);

std::string encode_response(const Response& resp);
std::optional<Response> decode_response(const std::string& frame,
                                        std::string* error = nullptr);

/// The coalescing identity of a submit request: tenant, kind, work, params,
/// priority, and deadline — everything that changes what executing it means.
/// Two requests with equal keys may share one execution.
std::string coalesce_key(const Request& req);

}  // namespace rebooting::net
