// Wire-protocol tests: codec round trips, strict-on-type / silent-on-unknown
// decoding, and the framing edge cases the service must survive — partial
// reads, oversized frames, malformed JSON, and mid-frame disconnects.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <thread>

#include "net/protocol.h"
#include "net/socket.h"

namespace rebooting::net {
namespace {

// --- codec ----------------------------------------------------------------

TEST(Protocol, RequestRoundTripsEveryField) {
  Request req;
  req.id = 42;
  req.method = "submit";
  req.tenant = "alice";
  req.work = "spin";
  req.kind = core::AcceleratorKind::kMemcomputing;
  req.params = core::JsonValue::make_object(
      {{"micros", core::JsonValue::make_number(50.0)}});
  req.priority = 3;
  req.deadline_ms = 250.0;
  req.no_coalesce = true;
  req.memo = true;

  const auto decoded = decode_request(encode_request(req));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->id, 42u);
  EXPECT_EQ(decoded->method, "submit");
  EXPECT_EQ(decoded->tenant, "alice");
  EXPECT_EQ(decoded->work, "spin");
  EXPECT_EQ(decoded->kind, core::AcceleratorKind::kMemcomputing);
  EXPECT_DOUBLE_EQ(decoded->params.at("micros").number(), 50.0);
  EXPECT_EQ(decoded->priority, 3);
  ASSERT_TRUE(decoded->deadline_ms.has_value());
  EXPECT_DOUBLE_EQ(*decoded->deadline_ms, 250.0);
  EXPECT_TRUE(decoded->no_coalesce);
  EXPECT_TRUE(decoded->memo);
}

TEST(Protocol, MemoDefaultsOffAndStaysOffTheWire) {
  Request req;
  req.method = "submit";
  const std::string wire = encode_request(req);
  EXPECT_EQ(wire.find("memo"), std::string::npos);
  const auto decoded = decode_request(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->memo);
}

TEST(Protocol, ResponseRoundTripsEveryField) {
  Response resp;
  resp.id = 7;
  resp.status = Status::kQuotaExceeded;
  resp.summary = "tenant over quota";
  resp.attempts = 2;
  resp.degraded = true;
  resp.coalesced = true;
  resp.wall_seconds = 1.5e-3;
  resp.retry_after_ms = 12.5;
  resp.metrics["work.spin_micros"] = 50.0;
  resp.body = core::JsonValue::make_object(
      {{"outstanding", core::JsonValue::make_number(3.0)}});

  const auto decoded = decode_response(encode_response(resp));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->id, 7u);
  EXPECT_EQ(decoded->status, Status::kQuotaExceeded);
  EXPECT_EQ(decoded->summary, "tenant over quota");
  EXPECT_EQ(decoded->attempts, 2u);
  EXPECT_TRUE(decoded->degraded);
  EXPECT_TRUE(decoded->coalesced);
  EXPECT_DOUBLE_EQ(decoded->wall_seconds, 1.5e-3);
  ASSERT_TRUE(decoded->retry_after_ms.has_value());
  EXPECT_DOUBLE_EQ(*decoded->retry_after_ms, 12.5);
  EXPECT_DOUBLE_EQ(decoded->metrics.at("work.spin_micros"), 50.0);
  EXPECT_DOUBLE_EQ(decoded->body.at("outstanding").number(), 3.0);
}

TEST(Protocol, EveryStatusSurvivesTheStringMapping) {
  for (const Status s :
       {Status::kOk, Status::kFailed, Status::kOverloaded,
        Status::kQuotaExceeded, Status::kDeadlineMissed, Status::kCancelled,
        Status::kShuttingDown, Status::kBadRequest, Status::kError}) {
    const auto back = status_from_string(to_string(s));
    ASSERT_TRUE(back.has_value()) << to_string(s);
    EXPECT_EQ(*back, s);
  }
  EXPECT_FALSE(status_from_string("no-such-status").has_value());
}

TEST(Protocol, TraceContextRoundTripsAsDecimalStrings) {
  // Full-width u64s: the decimal-string encoding must survive values a JSON
  // double would silently round (anything past 2^53).
  Request req;
  req.id = 7;
  req.method = "submit";
  req.work = "spin";
  req.trace_id = ~std::uint64_t{0};  // 18446744073709551615
  req.parent_span = (1ull << 53) + 1;
  const std::string frame = encode_request(req);
  EXPECT_NE(frame.find("\"trace_id\":\"18446744073709551615\""),
            std::string::npos);
  const auto decoded = decode_request(frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->trace_id, ~std::uint64_t{0});
  EXPECT_EQ(decoded->parent_span, (1ull << 53) + 1);

  // Absent context decodes to 0 and encodes to nothing.
  Request bare;
  bare.id = 1;
  bare.method = "ping";
  EXPECT_EQ(encode_request(bare).find("trace_id"), std::string::npos);
  const auto bare_decoded = decode_request(encode_request(bare));
  ASSERT_TRUE(bare_decoded.has_value());
  EXPECT_EQ(bare_decoded->trace_id, 0u);
  EXPECT_EQ(bare_decoded->parent_span, 0u);

  Response resp;
  resp.id = 7;
  resp.status = Status::kOk;
  resp.streaming = true;
  resp.trace_id = req.trace_id;
  const auto resp_decoded = decode_response(encode_response(resp));
  ASSERT_TRUE(resp_decoded.has_value());
  EXPECT_TRUE(resp_decoded->streaming);
  EXPECT_EQ(resp_decoded->trace_id, ~std::uint64_t{0});
}

TEST(Protocol, TraceContextIsStrictlyParsed) {
  // Present-but-wrong is a hard error like any other type mismatch: a JSON
  // number would already have lost precision by the time we saw it.
  std::string error;
  EXPECT_FALSE(
      decode_request(R"({"id":1,"method":"ping","trace_id":7})", &error)
          .has_value());
  EXPECT_NE(error.find("trace_id"), std::string::npos);
  EXPECT_FALSE(
      decode_request(R"({"id":1,"method":"ping","trace_id":"7x"})")
          .has_value());
  EXPECT_FALSE(
      decode_request(R"({"id":1,"method":"ping","trace_id":""})")
          .has_value());
  // 2^64 exactly: 20 digits, overflows by one — the checked accumulate must
  // catch it, not wrap.
  EXPECT_FALSE(decode_request(
                   R"({"id":1,"method":"ping","trace_id":"18446744073709551616"})")
                   .has_value());
  EXPECT_FALSE(decode_response(R"({"id":1,"status":"ok","streaming":"yes"})")
                   .has_value());
}

TEST(Protocol, ParamsRideOnAnyMethodForWatch) {
  Request req;
  req.id = 3;
  req.method = "watch";
  req.params = core::JsonValue::make_object(
      {{"interval_ms", core::JsonValue::make_number(125.0)}});
  const auto decoded = decode_request(encode_request(req));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->method, "watch");
  ASSERT_TRUE(decoded->params.is_object());
  EXPECT_DOUBLE_EQ(decoded->params.at("interval_ms").number(), 125.0);
}

TEST(Protocol, DecodeRejectsMalformedDocuments) {
  std::string error;
  EXPECT_FALSE(decode_request("{not json", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(decode_request("[1,2,3]", &error).has_value());
  EXPECT_FALSE(decode_request("{}", &error).has_value());  // no id/method
  EXPECT_FALSE(
      decode_request(R"({"id":1,"method":"submit","kind":"warp-drive"})")
          .has_value());
  EXPECT_FALSE(decode_response(R"({"id":1,"status":"nope"})").has_value());
}

TEST(Protocol, DecodeIsStrictOnTypesAndSilentOnUnknownFields) {
  // Mistyped known field: rejected with a diagnostic naming the field.
  std::string error;
  EXPECT_FALSE(
      decode_request(R"({"id":1,"method":"ping","tenant":7})", &error)
          .has_value());
  EXPECT_NE(error.find("tenant"), std::string::npos);
  // Unknown field: ignored (forward compatibility across shard versions).
  const auto req = decode_request(
      R"({"id":1,"method":"ping","some_future_field":{"a":[1]}})");
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->method, "ping");
}

TEST(Protocol, OutOfRangeNumbersAreRejectedNamingTheField) {
  // Each of these once reached a float->integer or float->duration cast
  // unchecked, which is undefined behaviour.
  const struct {
    const char* frame;
    const char* field;
  } cases[] = {
      {R"({"id":1e30,"method":"ping"})", "id"},
      {R"({"id":-1,"method":"ping"})", "id"},
      {R"({"id":1.5,"method":"ping"})", "id"},
      {R"({"id":1,"method":"submit","priority":1e12})", "priority"},
      {R"({"id":1,"method":"submit","priority":-1e12})", "priority"},
      {R"({"id":1,"method":"submit","deadline_ms":1e999})", "deadline_ms"},
      {R"({"id":1,"method":"submit","deadline_ms":1e300})", "deadline_ms"},
  };
  for (const auto& c : cases) {
    std::string error;
    EXPECT_FALSE(decode_request(c.frame, &error).has_value()) << c.frame;
    EXPECT_NE(error.find(c.field), std::string::npos)
        << c.frame << " -> " << error;
  }
  std::string error;
  EXPECT_FALSE(
      decode_response(R"({"id":1,"status":"ok","attempts":1e30})", &error)
          .has_value());
  EXPECT_NE(error.find("attempts"), std::string::npos) << error;

  // The edges of the accepted ranges still decode.
  const auto req = decode_request(
      R"({"id":9007199254740992,"method":"submit","priority":-1073741824,)"
      R"("deadline_ms":1e12})");
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->id, 9007199254740992ull);
  EXPECT_EQ(req->priority, -1073741824);
  EXPECT_DOUBLE_EQ(*req->deadline_ms, 1e12);
}

TEST(Protocol, CoalesceKeySeparatesWhatMustNotMerge) {
  Request a;
  a.id = 1;
  a.method = "submit";
  a.tenant = "alice";
  a.work = "spin";
  Request b = a;
  b.id = 2;  // ids never enter the key
  EXPECT_EQ(coalesce_key(a), coalesce_key(b));

  Request c = a;
  c.tenant = "bob";
  EXPECT_NE(coalesce_key(a), coalesce_key(c));
  Request d = a;
  d.params = core::JsonValue::make_object(
      {{"micros", core::JsonValue::make_number(50.0)}});
  EXPECT_NE(coalesce_key(a), coalesce_key(d));
  Request e = a;
  e.priority = 1;
  EXPECT_NE(coalesce_key(a), coalesce_key(e));
  Request f = a;
  f.deadline_ms = 100.0;
  EXPECT_NE(coalesce_key(a), coalesce_key(f));
}

// --- framing --------------------------------------------------------------

/// A connected local socket pair for framing tests.
struct Pair {
  Socket a, b;
  Pair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = Socket(fds[0]);
    b = Socket(fds[1]);
  }
};

TEST(Framing, FrameRoundTrip) {
  Pair pair;
  ASSERT_TRUE(write_frame(pair.a, R"({"id":1})"));
  std::string frame;
  ASSERT_EQ(read_frame(pair.b, &frame, kMaxFrameBytes), FrameRead::kFrame);
  EXPECT_EQ(frame, R"({"id":1})");

  ASSERT_TRUE(write_frame(pair.a, ""));  // empty frames are legal transport
  ASSERT_EQ(read_frame(pair.b, &frame, kMaxFrameBytes), FrameRead::kFrame);
  EXPECT_TRUE(frame.empty());
}

TEST(Framing, PartialWritesStillAssembleOneFrame) {
  Pair pair;
  const std::string payload = R"({"id":9,"method":"ping"})";
  const auto n = static_cast<std::uint32_t>(payload.size());
  std::string wire;
  wire.push_back(static_cast<char>(n >> 24));
  wire.push_back(static_cast<char>(n >> 16));
  wire.push_back(static_cast<char>(n >> 8));
  wire.push_back(static_cast<char>(n));
  wire += payload;

  // Dribble the frame one byte at a time from another thread; read_frame
  // must block through every partial read and return the complete payload.
  std::thread writer([&] {
    for (const char c : wire) {
      ASSERT_TRUE(pair.a.write_all(&c, 1));
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  std::string frame;
  EXPECT_EQ(read_frame(pair.b, &frame, kMaxFrameBytes), FrameRead::kFrame);
  EXPECT_EQ(frame, payload);
  writer.join();
}

TEST(Framing, OversizedFrameIsReportedWithoutBuffering) {
  Pair pair;
  // Declare a 256 MiB body (never sent); the reader must refuse at the
  // prefix instead of allocating it.
  const unsigned char prefix[4] = {0x10, 0x00, 0x00, 0x00};
  ASSERT_TRUE(pair.a.write_all(prefix, 4));
  std::string frame;
  EXPECT_EQ(read_frame(pair.b, &frame, kMaxFrameBytes),
            FrameRead::kOversized);
}

TEST(Framing, CleanEofVsMidFrameDisconnect) {
  {
    Pair pair;
    pair.a.close();  // nothing sent: clean EOF at a frame boundary
    std::string frame;
    EXPECT_EQ(read_frame(pair.b, &frame, kMaxFrameBytes), FrameRead::kEof);
  }
  {
    Pair pair;
    const unsigned char partial[2] = {0x00, 0x00};  // half a length prefix
    ASSERT_TRUE(pair.a.write_all(partial, 2));
    pair.a.close();
    std::string frame;
    EXPECT_EQ(read_frame(pair.b, &frame, kMaxFrameBytes), FrameRead::kError);
  }
  {
    Pair pair;
    // Full prefix declaring 100 bytes, then only 10 arrive before the close.
    const unsigned char prefix[4] = {0x00, 0x00, 0x00, 0x64};
    ASSERT_TRUE(pair.a.write_all(prefix, 4));
    ASSERT_TRUE(pair.a.write_all("0123456789", 10));
    pair.a.close();
    std::string frame;
    EXPECT_EQ(read_frame(pair.b, &frame, kMaxFrameBytes), FrameRead::kError);
  }
}

}  // namespace
}  // namespace rebooting::net
