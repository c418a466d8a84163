#include "net/protocol.h"

#include <chrono>
#include <cmath>
#include <utility>

namespace rebooting::net {

namespace {

using core::JsonValue;

void put(JsonValue::Members& obj, const char* key, JsonValue v) {
  obj.emplace_back(key, std::move(v));
}

/// Type-checked field extraction: each returns false (setting *error) on a
/// present-but-mistyped member, true otherwise.
bool take_string(const JsonValue& doc, const char* key, std::string* out,
                 std::string* error) {
  if (!doc.contains(key)) return true;
  const JsonValue& v = doc.at(key);
  if (v.type() != JsonValue::Type::kString) {
    if (error) *error = std::string("field '") + key + "' must be a string";
    return false;
  }
  *out = v.string();
  return true;
}

bool take_number(const JsonValue& doc, const char* key, double* out,
                 std::string* error) {
  if (!doc.contains(key)) return true;
  const JsonValue& v = doc.at(key);
  if (v.type() != JsonValue::Type::kNumber) {
    if (error) *error = std::string("field '") + key + "' must be a number";
    return false;
  }
  *out = v.number();
  return true;
}

/// Largest wire integer: every integer up to 2^53 survives the trip through
/// a JSON double exactly.
constexpr double kMaxWireInteger = 9007199254740992.0;
/// Priorities stay far from INT_MIN/INT_MAX so the server's fair-share bias
/// can be added without overflow.
constexpr double kMaxPriority = 1073741824.0;  // 2^30
/// Largest deadline_ms: half of what a steady_clock duration holds, so
/// now + deadline cannot overflow either (about 146 thousand years).
constexpr double kMaxDeadlineMs =
    std::chrono::duration<double, std::milli>(
        std::chrono::steady_clock::duration::max())
        .count() /
    2.0;

/// Integer fields travel as JSON numbers. Present means: a number, integral,
/// within [lo, hi]; casting an out-of-range double to an integer is
/// undefined behaviour, so the range check comes before the cast. Absent
/// leaves *out untouched.
template <typename Int>
bool take_integer(const JsonValue& doc, const char* key, double lo, double hi,
                  Int* out, std::string* error) {
  if (!doc.contains(key)) return true;
  double v = 0.0;
  if (!take_number(doc, key, &v, error)) return false;
  if (!(v >= lo && v <= hi) || v != std::floor(v)) {
    if (error)
      *error = std::string("field '") + key + "' must be an integer in [" +
               core::json_number(lo) + ", " + core::json_number(hi) + "]";
    return false;
  }
  *out = static_cast<Int>(v);
  return true;
}

/// The `id` every frame must carry.
bool take_id(const JsonValue& doc, std::uint64_t* out, std::string* error) {
  if (!doc.contains("id")) {
    if (error) *error = "missing 'id'";
    return false;
  }
  return take_integer(doc, "id", 0.0, kMaxWireInteger, out, error);
}

bool take_bool(const JsonValue& doc, const char* key, bool* out,
               std::string* error) {
  if (!doc.contains(key)) return true;
  const JsonValue& v = doc.at(key);
  if (v.type() != JsonValue::Type::kBool) {
    if (error) *error = std::string("field '") + key + "' must be a bool";
    return false;
  }
  *out = v.boolean();
  return true;
}

/// Trace ids travel as decimal strings (u64 does not fit a JSON double), so
/// "present but not a digit string" is a strict-parse failure like any other
/// type mismatch. Absent leaves *out at 0.
bool take_u64_string(const JsonValue& doc, const char* key,
                     std::uint64_t* out, std::string* error) {
  if (!doc.contains(key)) return true;
  const JsonValue& v = doc.at(key);
  const auto fail = [&] {
    if (error)
      *error = std::string("field '") + key +
               "' must be a u64 as a decimal string";
    return false;
  };
  if (v.type() != JsonValue::Type::kString) return fail();
  const std::string& s = v.string();
  if (s.empty() || s.size() > 20) return fail();
  std::uint64_t value = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return fail();
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (~std::uint64_t{0} - digit) / 10) return fail();  // overflow
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

void put_u64_string(JsonValue::Members& obj, const char* key,
                    std::uint64_t value) {
  put(obj, key, JsonValue::make_string(std::to_string(value)));
}

std::optional<JsonValue> parse_object_frame(const std::string& frame,
                                            std::string* error) {
  auto doc = core::json_parse(frame);
  if (!doc) {
    if (error) *error = "frame is not valid JSON";
    return std::nullopt;
  }
  if (!doc->is_object()) {
    if (error) *error = "frame must be a JSON object";
    return std::nullopt;
  }
  return doc;
}

}  // namespace

std::string to_string(Status status) {
  switch (status) {
    case Status::kOk: return "ok";
    case Status::kFailed: return "failed";
    case Status::kOverloaded: return "overloaded";
    case Status::kQuotaExceeded: return "quota_exceeded";
    case Status::kDeadlineMissed: return "deadline_missed";
    case Status::kCancelled: return "cancelled";
    case Status::kShuttingDown: return "shutting_down";
    case Status::kBadRequest: return "bad_request";
    case Status::kError: return "error";
  }
  return "error";
}

std::optional<Status> status_from_string(const std::string& name) {
  for (const Status s :
       {Status::kOk, Status::kFailed, Status::kOverloaded,
        Status::kQuotaExceeded, Status::kDeadlineMissed, Status::kCancelled,
        Status::kShuttingDown, Status::kBadRequest, Status::kError})
    if (to_string(s) == name) return s;
  return std::nullopt;
}

std::string encode_request(const Request& req) {
  JsonValue::Members obj;
  put(obj, "v", JsonValue::make_number(kProtocolVersion));
  put(obj, "id", JsonValue::make_number(static_cast<core::Real>(req.id)));
  put(obj, "method", JsonValue::make_string(req.method));
  put(obj, "tenant", JsonValue::make_string(req.tenant));
  if (req.trace_id != 0) {
    put_u64_string(obj, "trace_id", req.trace_id);
    if (req.parent_span != 0)
      put_u64_string(obj, "parent_span", req.parent_span);
  }
  if (req.method == "submit") {
    put(obj, "work", JsonValue::make_string(req.work));
    put(obj, "kind", JsonValue::make_string(core::to_string(req.kind)));
    if (req.priority != 0)
      put(obj, "priority", JsonValue::make_number(req.priority));
    if (req.deadline_ms)
      put(obj, "deadline_ms", JsonValue::make_number(*req.deadline_ms));
    if (req.no_coalesce) put(obj, "no_coalesce", JsonValue::make_bool(true));
    if (req.memo) put(obj, "memo", JsonValue::make_bool(true));
  }
  // params ride on any method that takes them (submit's workload knobs,
  // watch's interval_ms).
  if (!req.params.is_null()) put(obj, "params", req.params);
  return core::json_dump(JsonValue::make_object(std::move(obj)));
}

std::optional<Request> decode_request(const std::string& frame,
                                      std::string* error) {
  const auto doc = parse_object_frame(frame, error);
  if (!doc) return std::nullopt;

  Request req;
  if (!take_id(*doc, &req.id, error)) return std::nullopt;
  if (!take_string(*doc, "method", &req.method, error)) return std::nullopt;
  if (req.method.empty()) {
    if (error) *error = "missing 'method'";
    return std::nullopt;
  }
  if (!take_string(*doc, "tenant", &req.tenant, error)) return std::nullopt;
  if (!take_u64_string(*doc, "trace_id", &req.trace_id, error))
    return std::nullopt;
  if (!take_u64_string(*doc, "parent_span", &req.parent_span, error))
    return std::nullopt;
  if (!take_string(*doc, "work", &req.work, error)) return std::nullopt;

  std::string kind_name;
  if (!take_string(*doc, "kind", &kind_name, error)) return std::nullopt;
  if (!kind_name.empty()) {
    const auto kind = core::kind_from_string(kind_name);
    if (!kind) {
      if (error) *error = "unknown accelerator kind '" + kind_name + "'";
      return std::nullopt;
    }
    req.kind = *kind;
  }

  if (doc->contains("params")) {
    const JsonValue& params = doc->at("params");
    if (!params.is_object()) {
      if (error) *error = "field 'params' must be an object";
      return std::nullopt;
    }
    req.params = params;
  }

  if (!take_integer(*doc, "priority", -kMaxPriority, kMaxPriority,
                    &req.priority, error))
    return std::nullopt;

  if (doc->contains("deadline_ms")) {
    double deadline = 0.0;
    if (!take_number(*doc, "deadline_ms", &deadline, error))
      return std::nullopt;
    // Rejects NaN and +inf too: the server turns this into a
    // Clock::duration, where a non-finite or huge value is undefined.
    if (!(deadline > 0.0 && deadline <= kMaxDeadlineMs)) {
      if (error)
        *error = "field 'deadline_ms' must be > 0 and <= " +
                 core::json_number(kMaxDeadlineMs);
      return std::nullopt;
    }
    req.deadline_ms = deadline;
  }
  if (!take_bool(*doc, "no_coalesce", &req.no_coalesce, error))
    return std::nullopt;
  if (!take_bool(*doc, "memo", &req.memo, error)) return std::nullopt;
  return req;
}

std::string encode_response(const Response& resp) {
  JsonValue::Members obj;
  put(obj, "id", JsonValue::make_number(static_cast<core::Real>(resp.id)));
  put(obj, "status", JsonValue::make_string(to_string(resp.status)));
  if (!resp.summary.empty())
    put(obj, "summary", JsonValue::make_string(resp.summary));
  if (resp.attempts != 0)
    put(obj, "attempts",
        JsonValue::make_number(static_cast<core::Real>(resp.attempts)));
  if (resp.degraded) put(obj, "degraded", JsonValue::make_bool(true));
  if (resp.coalesced) put(obj, "coalesced", JsonValue::make_bool(true));
  if (resp.streaming) put(obj, "streaming", JsonValue::make_bool(true));
  if (resp.trace_id != 0) put_u64_string(obj, "trace_id", resp.trace_id);
  if (resp.wall_seconds > 0.0)
    put(obj, "wall_seconds", JsonValue::make_number(resp.wall_seconds));
  if (resp.retry_after_ms)
    put(obj, "retry_after_ms", JsonValue::make_number(*resp.retry_after_ms));
  if (!resp.metrics.empty()) {
    JsonValue::Members metrics;
    for (const auto& [key, value] : resp.metrics)
      metrics.emplace_back(key, JsonValue::make_number(value));
    put(obj, "metrics", JsonValue::make_object(std::move(metrics)));
  }
  if (!resp.body.is_null()) put(obj, "body", resp.body);
  return core::json_dump(JsonValue::make_object(std::move(obj)));
}

std::optional<Response> decode_response(const std::string& frame,
                                        std::string* error) {
  const auto doc = parse_object_frame(frame, error);
  if (!doc) return std::nullopt;

  Response resp;
  if (!take_id(*doc, &resp.id, error)) return std::nullopt;

  std::string status_name;
  if (!take_string(*doc, "status", &status_name, error)) return std::nullopt;
  const auto status = status_from_string(status_name);
  if (!status) {
    if (error) *error = "missing or unknown 'status'";
    return std::nullopt;
  }
  resp.status = *status;

  if (!take_string(*doc, "summary", &resp.summary, error))
    return std::nullopt;
  if (!take_integer(*doc, "attempts", 0.0, kMaxWireInteger, &resp.attempts,
                    error))
    return std::nullopt;
  if (!take_bool(*doc, "degraded", &resp.degraded, error))
    return std::nullopt;
  if (!take_bool(*doc, "coalesced", &resp.coalesced, error))
    return std::nullopt;
  if (!take_bool(*doc, "streaming", &resp.streaming, error))
    return std::nullopt;
  if (!take_u64_string(*doc, "trace_id", &resp.trace_id, error))
    return std::nullopt;
  if (!take_number(*doc, "wall_seconds", &resp.wall_seconds, error))
    return std::nullopt;
  if (doc->contains("retry_after_ms")) {
    double retry = 0.0;
    if (!take_number(*doc, "retry_after_ms", &retry, error))
      return std::nullopt;
    resp.retry_after_ms = retry;
  }
  if (doc->contains("metrics")) {
    const JsonValue& metrics = doc->at("metrics");
    if (!metrics.is_object()) {
      if (error) *error = "field 'metrics' must be an object";
      return std::nullopt;
    }
    for (const auto& [key, value] : metrics.object()) {
      if (value.type() != JsonValue::Type::kNumber) {
        if (error) *error = "metric '" + key + "' must be a number";
        return std::nullopt;
      }
      resp.metrics.emplace(key, value.number());
    }
  }
  if (doc->contains("body")) resp.body = doc->at("body");
  return resp;
}

std::string coalesce_key(const Request& req) {
  // json_dump of params is canonical enough here: clients that build the
  // same params object the same way produce the same member order. A nonce
  // member anywhere in params opts a request out naturally.
  std::string key;
  key.reserve(64);
  key += req.tenant;
  key += '\x1f';
  key += core::to_string(req.kind);
  key += '\x1f';
  key += req.work;
  key += '\x1f';
  key += core::json_dump(req.params);
  key += '\x1f';
  key += std::to_string(req.priority);
  key += '\x1f';
  key += req.deadline_ms ? std::to_string(*req.deadline_ms) : std::string();
  return key;
}

}  // namespace rebooting::net
