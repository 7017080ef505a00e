// Gateway tests: wire-codec edge cases (truncated frames, oversized length
// prefixes, unknown message types, version mismatches — each must fail the
// connection cleanly, never crash or leak), listener lifecycle over real
// loopback sockets, per-connection backpressure, session sweeping on
// disconnect, wire-vs-direct fix bit-identity, scrape coherence (the
// registry counts every request a client sent, and the stage clocks
// telescope to the end-to-end latency), and the settle paths that answer
// over the wire with no further socket traffic (queue expiry, session-FIFO
// expiry, close_session) — each wakes the handler through its notifier.
//
// The suite carries the `concurrency` CTest label and runs under
// -DNOBLE_SANITIZE=thread in CI: the listener's handler threads, the
// client's reader thread and the engine's worker pool all interleave here.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "core/noble_imu.h"
#include "core/noble_wifi.h"
#include "fleet/router.h"
#include "gateway/client.h"
#include "gateway/gateway.h"
#include "gateway/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parked_workers.h"
#include "serve/imu_localizer.h"
#include "serve/wifi_localizer.h"

namespace noble::gateway {
namespace {

// ---------------------------------------------------------------------------
// Wire codec: round trips.
// ---------------------------------------------------------------------------

net::Frame roundtrip(const net::Frame& in) {
  std::string buffer = net::encode_frame(in);
  net::Frame out;
  EXPECT_EQ(net::decode_frame(wire::message_set(), buffer, out), net::DecodeResult::kFrame);
  EXPECT_TRUE(buffer.empty()) << "decode must consume exactly one frame";
  return out;
}

TEST(WireCodec, HeaderRoundTripsEveryField) {
  net::Frame in;
  in.type = wire::MsgType::kLocate;
  in.request_id = 0xDEADBEEFCAFE1234ull;
  in.cls = engine::RequestClass::kBulk;
  in.deadline_us = 250000;
  in.body = std::string("\x00\x01\x02payload", 10);
  const net::Frame out = roundtrip(in);
  EXPECT_EQ(out.type, in.type);
  EXPECT_EQ(out.request_id, in.request_id);
  EXPECT_EQ(out.cls, in.cls);
  EXPECT_EQ(out.deadline_us, in.deadline_us);
  EXPECT_EQ(out.body, in.body);
}

TEST(WireCodec, TwoFramesDecodeInOrderFromOneBuffer) {
  net::Frame a, b;
  a.type = wire::MsgType::kStats;
  a.request_id = 1;
  b.type = wire::MsgType::kCloseSession;
  b.request_id = 2;
  b.body = wire::encode_close_session_body(77);
  std::string buffer = net::encode_frame(a) + net::encode_frame(b);
  net::Frame out;
  ASSERT_EQ(net::decode_frame(wire::message_set(), buffer, out), net::DecodeResult::kFrame);
  EXPECT_EQ(out.request_id, 1u);
  ASSERT_EQ(net::decode_frame(wire::message_set(), buffer, out), net::DecodeResult::kFrame);
  EXPECT_EQ(out.request_id, 2u);
  std::uint64_t session = 0;
  EXPECT_TRUE(wire::decode_close_session_body(out.body, session));
  EXPECT_EQ(session, 77u);
  EXPECT_EQ(net::decode_frame(wire::message_set(), buffer, out), net::DecodeResult::kNeedMore);
}

TEST(WireCodec, LocateBodyRoundTrip) {
  const serve::RssiVector rssi = {-48.5f, -90.25f, 0.0f, -120.0f};
  const std::string body = wire::encode_locate_body("bldg-7", rssi);
  std::string key;
  serve::RssiVector decoded;
  ASSERT_TRUE(wire::decode_locate_body(body, key, decoded));
  EXPECT_EQ(key, "bldg-7");
  ASSERT_EQ(decoded.size(), rssi.size());
  for (std::size_t i = 0; i < rssi.size(); ++i) {
    // Bitwise, not approximate: the codec moves exact float patterns.
    EXPECT_EQ(std::memcmp(&decoded[i], &rssi[i], sizeof(float)), 0);
  }
}

TEST(WireCodec, FixBodyIsBitExact) {
  serve::Fix fix;
  fix.building = 3;
  fix.floor = -1;
  fix.fine_class = 4096;
  fix.position = {123.4567890123456789, -0.000030517578125};
  fix.confidence = 0.7071067811865476;
  const std::string body = wire::encode_fix_body(wire::Status::kOk, &fix);
  wire::Status status = wire::Status::kStopped;
  serve::Fix out;
  ASSERT_TRUE(wire::decode_fix_body(body, status, out));
  EXPECT_EQ(status, wire::Status::kOk);
  EXPECT_TRUE(out == fix);  // Fix::operator== is exact, field for field
}

TEST(WireCodec, RejectionFixBodyCarriesNoPayload) {
  const std::string body = wire::encode_fix_body(wire::Status::kQueueFull, nullptr);
  wire::Status status = wire::Status::kOk;
  serve::Fix out;
  ASSERT_TRUE(wire::decode_fix_body(body, status, out));
  EXPECT_EQ(status, wire::Status::kQueueFull);
}

TEST(WireCodec, TrackAndSessionBodiesRoundTrip) {
  const serve::ImuSegment segment = {0.5f, -1.5f, 2.25f};
  const std::string track = wire::encode_track_body(31337, segment);
  std::uint64_t session = 0;
  serve::ImuSegment seg_out;
  ASSERT_TRUE(wire::decode_track_body(track, session, seg_out));
  EXPECT_EQ(session, 31337u);
  EXPECT_EQ(seg_out, segment);

  const std::string open = wire::encode_open_session_body("bldg-1", {2.5, -8.75});
  std::string key;
  geo::Point2 start;
  ASSERT_TRUE(wire::decode_open_session_body(open, key, start));
  EXPECT_EQ(key, "bldg-1");
  EXPECT_EQ(start.x, 2.5);
  EXPECT_EQ(start.y, -8.75);

  const std::string opened =
      wire::encode_session_opened_body(wire::Status::kOk, 99);
  wire::Status status = wire::Status::kStopped;
  std::uint64_t id = 0;
  ASSERT_TRUE(wire::decode_session_opened_body(opened, status, id));
  EXPECT_EQ(status, wire::Status::kOk);
  EXPECT_EQ(id, 99u);
}

// ---------------------------------------------------------------------------
// Wire codec: malformed input. Every case must report kMalformed (or reject
// the body) without crashing, allocating absurdly, or consuming the buffer.
// ---------------------------------------------------------------------------

TEST(WireCodec, PartialFrameIsNeedMoreAtEveryPrefixLength) {
  net::Frame frame;
  frame.type = wire::MsgType::kLocate;
  frame.request_id = 42;
  frame.body = wire::encode_locate_body("k", {-50.0f});
  const std::string full = net::encode_frame(frame);
  // Truncated frame: every strict prefix must parse as "need more bytes" —
  // framing state, never an error, never a partial frame.
  for (std::size_t len = 0; len < full.size(); ++len) {
    std::string buffer = full.substr(0, len);
    net::Frame out;
    EXPECT_EQ(net::decode_frame(wire::message_set(), buffer, out), net::DecodeResult::kNeedMore)
        << "at prefix length " << len;
    EXPECT_EQ(buffer.size(), len) << "kNeedMore must not consume bytes";
  }
}

TEST(WireCodec, OversizedLengthPrefixIsMalformedBeforeAllocation) {
  // A hostile length prefix must be rejected against max_frame_bytes before
  // anything is buffered or allocated on its behalf.
  const std::uint32_t huge = 0x7FFFFFFFu;
  std::string buffer(sizeof huge, '\0');
  std::memcpy(buffer.data(), &huge, sizeof huge);
  net::Frame out;
  std::string error;
  EXPECT_EQ(net::decode_frame(wire::message_set(), buffer, out, net::kDefaultMaxFrameBytes, &error),
            net::DecodeResult::kMalformed);
  EXPECT_NE(error.find("oversized"), std::string::npos) << error;
}

TEST(WireCodec, LengthPrefixShorterThanHeaderIsMalformed) {
  const std::uint32_t tiny = 4;  // a 4-byte payload cannot hold the header
  std::string buffer(sizeof tiny + tiny, '\0');
  std::memcpy(buffer.data(), &tiny, sizeof tiny);
  net::Frame out;
  std::string error;
  EXPECT_EQ(net::decode_frame(wire::message_set(), buffer, out, net::kDefaultMaxFrameBytes, &error),
            net::DecodeResult::kMalformed);
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
}

TEST(WireCodec, BadMagicIsMalformed) {
  net::Frame frame;
  frame.type = wire::MsgType::kStats;
  std::string buffer = net::encode_frame(frame);
  buffer[4] ^= 0x40;  // corrupt the protocol tag, not just the version byte
  buffer[5] ^= 0x40;
  net::Frame out;
  std::string error;
  EXPECT_EQ(net::decode_frame(wire::message_set(), buffer, out, net::kDefaultMaxFrameBytes, &error),
            net::DecodeResult::kMalformed);
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(WireCodec, VersionMismatchIsDistinguishedFromBadMagic) {
  net::Frame frame;
  frame.type = wire::MsgType::kStats;
  std::string buffer = net::encode_frame(frame);
  // The low magic byte is the version (little-endian u32 at payload start).
  buffer[4] = static_cast<char>(net::kVersion + 1);
  net::Frame out;
  std::string error;
  EXPECT_EQ(net::decode_frame(wire::message_set(), buffer, out, net::kDefaultMaxFrameBytes, &error),
            net::DecodeResult::kMalformed);
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(WireCodec, UnknownMessageTypeIsMalformed) {
  net::Frame frame;
  frame.type = static_cast<wire::MsgType>(999);
  std::string buffer = net::encode_frame(frame);
  net::Frame out;
  std::string error;
  EXPECT_EQ(net::decode_frame(wire::message_set(), buffer, out, net::kDefaultMaxFrameBytes, &error),
            net::DecodeResult::kMalformed);
  EXPECT_NE(error.find("unknown message type"), std::string::npos) << error;
}

TEST(WireCodec, TruncatedBodiesAreRejected) {
  const std::string locate = wire::encode_locate_body("bldg", {-1.0f, -2.0f});
  std::string key;
  serve::RssiVector rssi;
  for (std::size_t len = 0; len < locate.size(); ++len) {
    EXPECT_FALSE(wire::decode_locate_body(locate.substr(0, len), key, rssi))
        << "at body length " << len;
  }
  // Trailing garbage is rejected too: a body must parse exhaustively.
  EXPECT_FALSE(wire::decode_locate_body(locate + "x", key, rssi));
}

TEST(WireCodec, LyingVectorCountIsRejectedWithoutAllocating) {
  // A body claiming 2^61 floats in a 30-byte payload must fail the length
  // check before resize() is attempted (no bad_alloc, no crash).
  std::string body = wire::encode_locate_body("k", {-1.0f});
  const std::uint64_t lie = 1ull << 61;
  // The f32 count sits right after the key (u64 len + bytes).
  std::memcpy(body.data() + sizeof(std::uint64_t) + 1, &lie, sizeof lie);
  std::string key;
  serve::RssiVector rssi;
  EXPECT_FALSE(wire::decode_locate_body(body, key, rssi));
}

// ---------------------------------------------------------------------------
// The status table: engine verdict <-> wire code <-> client exception.
// ---------------------------------------------------------------------------

TEST(WireStatusTable, EngineVerdictsRoundTripThroughTheWire) {
  // Every engine verdict maps to its own wire code, so a client can tell
  // all seven apart from the reply alone.
  const engine::SubmitStatus verdicts[] = {
      engine::SubmitStatus::kAccepted,     engine::SubmitStatus::kQueueFull,
      engine::SubmitStatus::kBadDimension, engine::SubmitStatus::kNoSession,
      engine::SubmitStatus::kNoShard,      engine::SubmitStatus::kExpired,
      engine::SubmitStatus::kStopped};
  std::set<wire::Status> codes;
  for (const engine::SubmitStatus verdict : verdicts) {
    codes.insert(wire::from_submit_status(verdict));
  }
  EXPECT_EQ(codes.size(), std::size(verdicts));
  EXPECT_EQ(wire::from_submit_status(engine::SubmitStatus::kAccepted),
            wire::Status::kOk);
}

TEST(WireStatusTable, EveryStatusHasADistinctName) {
  const wire::Status all[] = {
      wire::Status::kOk,        wire::Status::kQueueFull,
      wire::Status::kBadDimension, wire::Status::kNoSession,
      wire::Status::kNoShard,   wire::Status::kExpired,
      wire::Status::kStopped,   wire::Status::kDeadlineExpired,
      wire::Status::kWindowFull, wire::Status::kWrongArtifact};
  std::set<std::string> names;
  for (const wire::Status status : all) {
    names.insert(wire::status_name(status));
  }
  EXPECT_EQ(names.size(), std::size(all));
  EXPECT_STREQ(wire::status_name(wire::Status::kWrongArtifact), "wrong_artifact");
}

TEST(WireStatusTable, RejectionExceptionMapsDeadlineToEngineType) {
  // kDeadlineExpired must throw the engine's own exception type so wire and
  // in-process targets fail identically; every other non-kOk status becomes
  // a WireRejected carrying the status.
  EXPECT_THROW(
      std::rethrow_exception(
          wire::rejection_exception(wire::Status::kDeadlineExpired)),
      engine::DeadlineExpired);
  const wire::Status rejected[] = {
      wire::Status::kQueueFull,  wire::Status::kBadDimension,
      wire::Status::kNoSession,  wire::Status::kNoShard,
      wire::Status::kExpired,    wire::Status::kStopped,
      wire::Status::kWindowFull, wire::Status::kWrongArtifact};
  for (const wire::Status status : rejected) {
    try {
      std::rethrow_exception(wire::rejection_exception(status));
      FAIL() << "status " << wire::status_name(status) << " must throw";
    } catch (const wire::WireRejected& e) {
      EXPECT_EQ(e.status, status);
      EXPECT_NE(std::string(e.what()).find(wire::status_name(status)),
                std::string::npos);
    }
  }
}

// ---------------------------------------------------------------------------
// Listener integration over real loopback sockets.
// ---------------------------------------------------------------------------

struct GatewayFixture {
  core::WifiExperiment wifi_exp;
  core::NobleWifiModel wifi_model;
  core::ImuExperiment imu_exp;
  core::NobleImuTracker tracker;
};

const GatewayFixture& gateway_fixture() {
  static const GatewayFixture* fixture = [] {
    core::WifiExperimentConfig wifi_cfg;
    wifi_cfg.total_samples = 1200;
    wifi_cfg.seed = 515;
    core::NobleWifiConfig wifi_model_cfg;
    wifi_model_cfg.quantize.tau = 6.0;
    wifi_model_cfg.quantize.coarse_l = 24.0;
    wifi_model_cfg.epochs = 6;
    wifi_model_cfg.hidden_units = 32;
    core::ImuExperimentConfig imu_cfg;
    imu_cfg.num_paths = 400;
    imu_cfg.total_walk_time_s = 1000.0;
    imu_cfg.readings_per_segment = 8;
    imu_cfg.imu.ref_interval_s = 15.0;
    imu_cfg.seed = 304;
    core::NobleImuConfig imu_model_cfg;
    imu_model_cfg.quantize.tau = 2.0;
    imu_model_cfg.epochs = 6;
    imu_model_cfg.projection_dim = 6;
    auto* f = new GatewayFixture{core::make_uji_experiment(wifi_cfg),
                                 core::NobleWifiModel(wifi_model_cfg),
                                 core::make_imu_experiment(imu_cfg),
                                 core::NobleImuTracker(imu_model_cfg)};
    f->wifi_model.fit(f->wifi_exp.split.train);
    f->tracker.fit(f->imu_exp.split.train);
    return f;
  }();
  return *fixture;
}

const serve::WifiLocalizer& wifi_localizer() {
  static const serve::WifiLocalizer* l = new serve::WifiLocalizer(
      serve::WifiLocalizer::from_model(gateway_fixture().wifi_model));
  return *l;
}

const serve::ImuLocalizer& imu_localizer() {
  static const serve::ImuLocalizer* l = new serve::ImuLocalizer(
      serve::ImuLocalizer::from_model(gateway_fixture().tracker));
  return *l;
}

/// One-shard router + started listener on an ephemeral loopback port.
struct LiveGateway {
  static constexpr std::size_t kWorkers = 2;  ///< of the shard's one engine

  explicit LiveGateway(GatewayConfig config = {}) : listener(router, std::move(config)) {
    fleet::ShardConfig shard;
    shard.key = "bldg-A";
    shard.engine.workers = kWorkers;
    shard.engine.max_batch = 8;
    router.add_shard(shard, wifi_localizer(), imu_localizer());
    EXPECT_TRUE(listener.start());
  }
  fleet::Router router;
  Listener listener;
};

std::vector<serve::RssiVector> test_queries(std::size_t max_count) {
  std::vector<serve::RssiVector> queries;
  const auto& samples = gateway_fixture().wifi_exp.split.test.samples;
  for (std::size_t i = 0; i < std::min(max_count, samples.size()); ++i) {
    queries.push_back(samples[i].rssi);
  }
  return queries;
}

TEST(GatewayListener, StartsOnEphemeralPortAndStopsIdempotently) {
  LiveGateway gw;
  EXPECT_TRUE(gw.listener.running());
  EXPECT_GT(gw.listener.port(), 0);
  gw.listener.stop();
  EXPECT_FALSE(gw.listener.running());
  gw.listener.stop();  // idempotent
}

TEST(GatewayListener, WireFixesAreBitIdenticalToDirectLocate) {
  LiveGateway gw;
  std::optional<GatewayClient> client =
      GatewayClient::connect("127.0.0.1", gw.listener.port());
  ASSERT_TRUE(client.has_value());
  for (const auto& q : test_queries(24)) {
    const serve::Fix expected = wifi_localizer().locate(q);
    const WireResult interactive = client->locate("bldg-A", q);
    ASSERT_TRUE(interactive.ok());
    EXPECT_TRUE(interactive.fix == expected);
    const WireResult bulk = client->locate("bldg-A", q, engine::RequestClass::kBulk,
                                           /*deadline_us=*/10'000'000);
    ASSERT_TRUE(bulk.ok());
    EXPECT_TRUE(bulk.fix == expected);
  }
}

TEST(GatewayListener, SessionStreamOverWireMatchesDirectSession) {
  LiveGateway gw;
  std::optional<GatewayClient> client =
      GatewayClient::connect("127.0.0.1", gw.listener.port());
  ASSERT_TRUE(client.has_value());
  const auto& fx = gateway_fixture();
  const auto& path = fx.imu_exp.split.test.paths.front();
  const std::size_t dim = fx.tracker.segment_dim();
  serve::TrackingSession direct = imu_localizer().start_session(path.start);
  const std::optional<std::uint64_t> session =
      client->open_session("bldg-A", path.start);
  ASSERT_TRUE(session.has_value());
  for (std::size_t s = 0; s < path.num_segments; ++s) {
    const serve::ImuSegment segment(
        path.features.begin() + static_cast<std::ptrdiff_t>(s * dim),
        path.features.begin() + static_cast<std::ptrdiff_t>((s + 1) * dim));
    const serve::Fix expected = direct.update(segment);
    const WireResult wired = client->track(*session, segment);
    ASSERT_TRUE(wired.ok());
    EXPECT_TRUE(wired.fix == expected);
  }
  EXPECT_TRUE(client->close_session(*session));
  EXPECT_FALSE(client->close_session(*session)) << "double close must refuse";
}

TEST(GatewayListener, UnknownShardAndSessionAnswerExplicitStatuses) {
  LiveGateway gw;
  std::optional<GatewayClient> client =
      GatewayClient::connect("127.0.0.1", gw.listener.port());
  ASSERT_TRUE(client.has_value());
  const auto queries = test_queries(1);
  ASSERT_FALSE(queries.empty());
  const WireResult no_shard = client->locate("no-such-bldg", queries.front());
  EXPECT_EQ(no_shard.status, wire::Status::kNoShard);
  const WireResult no_session = client->track(424242, {0.0f});
  EXPECT_EQ(no_session.status, wire::Status::kNoSession);
  // The connection survived both refusals.
  const WireResult ok = client->locate("bldg-A", queries.front());
  EXPECT_TRUE(ok.ok());
}

// --- malformed traffic over a real socket ------------------------------------

/// Raw TCP connect (no framing) for hostile-bytes tests.
int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  return fd;
}

/// Reads until EOF (with a poll timeout) and returns everything received.
std::string read_to_eof(int fd, int timeout_ms = 5000) {
  std::string received;
  for (;;) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready <= 0) {
      ADD_FAILURE() << "server neither answered nor closed within the timeout";
      return received;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) return received;  // EOF: the server closed, as it must
    received.append(chunk, static_cast<std::size_t>(n));
  }
}

/// Sends hostile bytes, expects exactly one kError frame followed by EOF.
void expect_error_then_close(std::uint16_t port, const std::string& bytes) {
  const int fd = raw_connect(port);
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));
  std::string response = read_to_eof(fd);
  ::close(fd);
  net::Frame frame;
  ASSERT_EQ(net::decode_frame(wire::message_set(), response, frame), net::DecodeResult::kFrame)
      << "the server must answer with a well-formed error frame before closing";
  EXPECT_EQ(frame.type, wire::MsgType::kError);
  std::string reason;
  EXPECT_TRUE(net::decode_text_body(frame.body, reason));
  EXPECT_FALSE(reason.empty());
  EXPECT_TRUE(response.empty()) << "nothing may follow the error frame";
}

TEST(GatewayListener, MalformedTrafficGetsOneErrorFrameThenClose) {
  LiveGateway gw;

  // Bad magic.
  {
    net::Frame frame;
    frame.type = wire::MsgType::kStats;
    std::string bytes = net::encode_frame(frame);
    bytes[4] ^= 0x40;
    bytes[5] ^= 0x40;
    expect_error_then_close(gw.listener.port(), bytes);
  }
  // Version from the future.
  {
    net::Frame frame;
    frame.type = wire::MsgType::kStats;
    std::string bytes = net::encode_frame(frame);
    bytes[4] = static_cast<char>(net::kVersion + 9);
    expect_error_then_close(gw.listener.port(), bytes);
  }
  // Unknown message type.
  {
    net::Frame frame;
    frame.type = static_cast<wire::MsgType>(999);
    expect_error_then_close(gw.listener.port(), net::encode_frame(frame));
  }
  // Oversized length prefix.
  {
    const std::uint32_t huge = 0x7FFFFFFFu;
    std::string bytes(sizeof huge, '\0');
    std::memcpy(bytes.data(), &huge, sizeof huge);
    expect_error_then_close(gw.listener.port(), bytes);
  }
  // Length prefix too short to hold the header.
  {
    const std::uint32_t tiny = 4;
    std::string bytes(sizeof tiny + tiny, '\0');
    std::memcpy(bytes.data(), &tiny, sizeof tiny);
    expect_error_then_close(gw.listener.port(), bytes);
  }
  // A response type sent by a client is a protocol violation too.
  {
    net::Frame frame;
    frame.type = wire::MsgType::kFix;
    frame.body = wire::encode_fix_body(wire::Status::kOk, nullptr);
    expect_error_then_close(gw.listener.port(), net::encode_frame(frame));
  }

  EXPECT_EQ(gw.listener.counters().malformed_frames, 6u);

  // The gateway survived every hostile connection: a fresh client still gets
  // bit-identical service, and nothing leaked into the fleet's admission
  // counters (malformed frames die before reaching the router).
  std::optional<GatewayClient> client =
      GatewayClient::connect("127.0.0.1", gw.listener.port());
  ASSERT_TRUE(client.has_value());
  const auto queries = test_queries(1);
  ASSERT_FALSE(queries.empty());
  const WireResult result = client->locate("bldg-A", queries.front());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.fix == wifi_localizer().locate(queries.front()));
  const fleet::FleetStats stats = gw.router.stats();
  EXPECT_EQ(stats.total.submitted, 1u)
      << "only the one good locate may have reached the router";
}

TEST(GatewayListener, WindowFullBackpressureAnswersWithoutTouchingRouter) {
  GatewayConfig config;
  config.inflight_window = 0;  // degenerate: every data request over-window
  LiveGateway gw(std::move(config));
  std::optional<GatewayClient> client =
      GatewayClient::connect("127.0.0.1", gw.listener.port());
  ASSERT_TRUE(client.has_value());
  const auto queries = test_queries(1);
  ASSERT_FALSE(queries.empty());
  const WireResult result = client->locate("bldg-A", queries.front());
  EXPECT_EQ(result.status, wire::Status::kWindowFull);
  // kWindowFull is backpressure, not a protocol error: the connection stays
  // open and control frames still work.
  EXPECT_TRUE(client->stats_text().has_value());
  EXPECT_GE(gw.listener.counters().backpressure_rejects, 1u);
  EXPECT_EQ(gw.router.stats().total.submitted, 0u)
      << "over-window requests must be refused before the router";
}

TEST(GatewayListener, DroppedConnectionSweepsItsSessions) {
  LiveGateway gw;
  {
    std::optional<GatewayClient> client =
        GatewayClient::connect("127.0.0.1", gw.listener.port());
    ASSERT_TRUE(client.has_value());
    const auto& path = gateway_fixture().imu_exp.split.test.paths.front();
    ASSERT_TRUE(client->open_session("bldg-A", path.start).has_value());
    ASSERT_TRUE(client->open_session("bldg-A", path.start).has_value());
    EXPECT_EQ(gw.listener.counters().sessions_opened, 2u);
    EXPECT_EQ(gw.listener.counters().sessions_closed, 0u);
  }  // client destroyed: the socket closes with both sessions still open

  // The handler notices the hangup and sweeps the sticky sessions.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (gw.listener.counters().sessions_closed < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(gw.listener.counters().sessions_closed, 2u);
}

// --- settle paths answered with no further socket traffic --------------------
//
// Each case parks the engine's workers, leaves a request pending on the
// connection and sends nothing more. Whatever settles the request must wake
// the handler through the connection's notifier: a missed notify is a hang
// here, so every wait is a generous 1 s — the point is "answered", not
// "fast".

/// True once the fleet queue holds at least `depth` entries (within 5 s).
bool wait_for_queue_depth(const fleet::Router& router, std::size_t depth) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (router.stats().total.queue_depth < depth) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

serve::ImuSegment first_segment(const data::ImuPath& path) {
  const auto dim = static_cast<std::ptrdiff_t>(gateway_fixture().tracker.segment_dim());
  return serve::ImuSegment(path.features.begin(), path.features.begin() + dim);
}

constexpr std::uint64_t kShortDeadlineUs = 100'000;
constexpr auto kPastShortDeadline = std::chrono::milliseconds(200);
constexpr int kAnswerTimeoutMs = 1000;

TEST(GatewaySettle, BulkLocateExpiringInTheQueueIsAnswered) {
  LiveGateway gw;
  std::optional<GatewayClient> client =
      GatewayClient::connect("127.0.0.1", gw.listener.port());
  ASSERT_TRUE(client.has_value());
  const auto queries = test_queries(2);
  ASSERT_EQ(queries.size(), 2u);
  test_support::ParkedWorkers parked(gw.router, "bldg-A", queries[0],
                                     LiveGateway::kWorkers);
  const std::uint64_t id = client->send_locate("bldg-A", queries[1],
                                               engine::RequestClass::kBulk,
                                               kShortDeadlineUs);
  ASSERT_NE(id, 0u);
  ASSERT_TRUE(wait_for_queue_depth(gw.router, 1));
  std::this_thread::sleep_for(kPastShortDeadline);
  parked.release();  // a worker pops the lapsed request and expires it
  const auto reply = client->recv_fix(kAnswerTimeoutMs);
  ASSERT_TRUE(reply.has_value()) << "queue expiry must notify the listener";
  EXPECT_EQ(reply->first, id);
  EXPECT_EQ(reply->second.status, wire::Status::kDeadlineExpired);
}

TEST(GatewaySettle, TrackUpdateExpiringInItsSessionFifoIsAnswered) {
  LiveGateway gw;
  std::optional<GatewayClient> client =
      GatewayClient::connect("127.0.0.1", gw.listener.port());
  ASSERT_TRUE(client.has_value());
  const auto& path = gateway_fixture().imu_exp.split.test.paths.front();
  const serve::ImuSegment segment = first_segment(path);
  const std::optional<std::uint64_t> session = client->open_session("bldg-A", path.start);
  ASSERT_TRUE(session.has_value());
  const auto queries = test_queries(1);
  ASSERT_FALSE(queries.empty());
  test_support::ParkedWorkers parked(gw.router, "bldg-A", queries[0],
                                     LiveGateway::kWorkers);
  const std::uint64_t id = client->send_track(
      *session, segment, engine::RequestClass::kInteractive, kShortDeadlineUs);
  ASSERT_NE(id, 0u);
  ASSERT_TRUE(wait_for_queue_depth(gw.router, 1));  // the session's token
  std::this_thread::sleep_for(kPastShortDeadline);
  parked.release();  // a worker drains the session and expires the update
  const auto reply = client->recv_fix(kAnswerTimeoutMs);
  ASSERT_TRUE(reply.has_value()) << "session-FIFO expiry must notify the listener";
  EXPECT_EQ(reply->first, id);
  EXPECT_EQ(reply->second.status, wire::Status::kDeadlineExpired);
}

/// One binary scrape over `client`, decoded; nullopt on any failure.
std::optional<obs::MetricsSnapshot> binary_scrape(GatewayClient& client) {
  const std::optional<std::string> bytes = client.stats_snapshot_bytes();
  if (!bytes.has_value()) return std::nullopt;
  return obs::decode_snapshot(*bytes);
}

TEST(GatewaySettle, CloseSessionAnswersEveryPendingUpdate) {
  LiveGateway gw;
  std::optional<GatewayClient> client =
      GatewayClient::connect("127.0.0.1", gw.listener.port());
  ASSERT_TRUE(client.has_value());
  const auto& path = gateway_fixture().imu_exp.split.test.paths.front();
  const serve::ImuSegment segment = first_segment(path);
  const std::optional<std::uint64_t> session = client->open_session("bldg-A", path.start);
  ASSERT_TRUE(session.has_value());
  const auto queries = test_queries(1);
  ASSERT_FALSE(queries.empty());
  test_support::ParkedWorkers parked(gw.router, "bldg-A", queries[0],
                                     LiveGateway::kWorkers);
  std::set<std::uint64_t> pending;
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t id =
        client->send_track(*session, segment, engine::RequestClass::kInteractive, 0);
    ASSERT_NE(id, 0u);
    pending.insert(id);
  }
  ASSERT_TRUE(wait_for_queue_depth(gw.router, 1));  // updates wait in the FIFO
  net::Frame close;
  close.type = wire::MsgType::kCloseSession;
  close.request_id = 1000;
  close.body = wire::encode_close_session_body(*session);
  ASSERT_TRUE(client->socket().send_frame(close));
  bool closed = false;
  while (!closed || !pending.empty()) {
    std::optional<net::Frame> frame = client->socket().recv_frame(kAnswerTimeoutMs);
    ASSERT_TRUE(frame.has_value()) << pending.size() << " pending updates unanswered";
    if (frame->type == wire::MsgType::kSessionClosed) {
      wire::Status status = wire::Status::kStopped;
      ASSERT_TRUE(wire::decode_status_body(frame->body, status));
      EXPECT_EQ(status, wire::Status::kOk);
      closed = true;
      continue;
    }
    ASSERT_EQ(frame->type, wire::MsgType::kFix);
    EXPECT_EQ(pending.erase(frame->request_id), 1u) << "id " << frame->request_id;
    wire::Status status = wire::Status::kOk;
    serve::Fix fix;
    ASSERT_TRUE(wire::decode_fix_body(frame->body, status, fix));
    EXPECT_EQ(status, wire::Status::kStopped) << "a closed session's update fails";
  }
  // The scrape counts each failed update as closed, in total and per class.
  const std::optional<obs::MetricsSnapshot> snap = binary_scrape(*client);
  ASSERT_TRUE(snap.has_value());
  for (const char* name : {"noble_fleet_closed", "noble_fleet_interactive_closed"}) {
    const obs::MetricSample* closed_sample = snap->find(name);
    ASSERT_NE(closed_sample, nullptr) << "missing: " << name;
    EXPECT_EQ(closed_sample->counter_value, 3u) << name;
  }
}

TEST(GatewayListener, StatsTextExposesGatewayAndFleetTelemetry) {
  LiveGateway gw;
  std::optional<GatewayClient> client =
      GatewayClient::connect("127.0.0.1", gw.listener.port());
  ASSERT_TRUE(client.has_value());
  const auto queries = test_queries(4);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const engine::RequestClass cls =
        i == 0 ? engine::RequestClass::kBulk : engine::RequestClass::kInteractive;
    ASSERT_TRUE(client->locate("bldg-A", queries[i], cls).ok());
  }
  const std::optional<std::string> text = client->stats_text();
  ASSERT_TRUE(text.has_value());
  for (const char* needle :
       {"noble_gateway_connections_accepted 1", "noble_gateway_malformed_frames 0",
        "noble_fleet_submitted 4", "noble_fleet_queue_depth ",
        "noble_fleet_queue_depth{shard=\"bldg-A\",engine=\"0\"}",
        "noble_fleet_interactive_p99_us "}) {
    EXPECT_NE(text->find(needle), std::string::npos) << "missing: " << needle;
  }

  // Traffic is idle, so the router's own view now matches the page: the
  // derived samples read exactly what the stats structs derive.
  const fleet::FleetStats stats = gw.router.stats();
  // One whole line of the page: float gauges render as %.1f, integers bare.
  const auto expect_line = [&](const std::string& name, const std::string& value) {
    const std::string line = "\n" + name + " " + value + "\n";
    EXPECT_NE(text->find(line), std::string::npos) << "missing: " << line;
  };
  const auto one_decimal = [](double value) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f", value);
    return std::string(buf);
  };
  for (const engine::RequestClass cls :
       {engine::RequestClass::kInteractive, engine::RequestClass::kBulk}) {
    const LatencySummary latency = summarize_latency_us(stats.total.for_class(cls).latency_us);
    const std::string prefix =
        std::string("noble_fleet_") + engine::request_class_name(cls);
    expect_line(prefix + "_p50_us", one_decimal(latency.p50_us));
    expect_line(prefix + "_p95_us", one_decimal(latency.p95_us));
    expect_line(prefix + "_p99_us", one_decimal(latency.p99_us));
  }
  EXPECT_GT(stats.total.bulk.latency_us.count(), 0u);
  expect_line("noble_fleet_shards", std::to_string(stats.shards.size()));
  expect_line("noble_fleet_engines", std::to_string(stats.num_engines));
  expect_line("noble_fleet_queue_depth", std::to_string(stats.total.queue_depth));
}

TEST(GatewayListener, BinaryScrapeDecodesToTheSameTelemetry) {
  LiveGateway gw;
  std::optional<GatewayClient> client =
      GatewayClient::connect("127.0.0.1", gw.listener.port());
  ASSERT_TRUE(client.has_value());
  const auto queries = test_queries(4);
  for (const auto& q : queries) ASSERT_TRUE(client->locate("bldg-A", q).ok());
  const std::optional<std::string> bytes = client->stats_snapshot_bytes();
  ASSERT_TRUE(bytes.has_value());
  const std::optional<obs::MetricsSnapshot> snap = obs::decode_snapshot(*bytes);
  ASSERT_TRUE(snap.has_value());
  const obs::MetricSample* submitted = snap->find("noble_fleet_submitted");
  ASSERT_NE(submitted, nullptr);
  EXPECT_EQ(submitted->counter_value, 4u);
  const obs::MetricSample* depth = snap->find(
      "noble_fleet_queue_depth", {{"shard", "bldg-A"}, {"engine", "0"}});
  ASSERT_NE(depth, nullptr);
  EXPECT_TRUE(depth->integer_gauge);
  // The binary image carries full bins, not just quantiles: the global
  // stage histograms decode as real Histograms a scraper could delta.
  const obs::MetricSample* e2e = snap->find("noble_trace_e2e_us");
  ASSERT_NE(e2e, nullptr);
  ASSERT_TRUE(e2e->hist.has_value());
  EXPECT_TRUE(e2e->hist->same_layout(Histogram::latency_us()));
}

/// `name{labels}`'s histogram in `after` minus the same one in `before`: the
/// distribution of just the traffic between the two scrapes.
Histogram histogram_delta(const obs::MetricsSnapshot& after,
                          const obs::MetricsSnapshot& before, const std::string& name,
                          const obs::Labels& labels = {}) {
  const obs::MetricSample* a = after.find(name, labels);
  const obs::MetricSample* b = before.find(name, labels);
  EXPECT_TRUE(a != nullptr && a->hist.has_value()) << "missing: " << name;
  EXPECT_TRUE(b != nullptr && b->hist.has_value()) << "missing: " << name;
  if (a == nullptr || b == nullptr || !a->hist || !b->hist) {
    return Histogram::latency_us();
  }
  Histogram delta = *a->hist;
  delta.subtract(*b->hist);
  return delta;
}

/// Restores the global tracer's on/off switch when a test that flips it
/// ends, pass or fail.
struct RestoreTracer {
  bool saved = obs::Tracer::global().enabled();
  ~RestoreTracer() { obs::Tracer::global().set_enabled(saved); }
};

// 32 traced locates, bracketed by binary scrapes of a quiet gateway: the
// registry counts exactly the requests the client sent, every one leaves an
// e2e trace sample, and the per-stage clocks add up to that e2e latency.
// The stage marks telescope, so the means agree almost exactly; medians do
// not add, so their sum only has to land near the e2e median — a band that
// still catches a stage clock that is broken.
TEST(GatewayListener, ScrapeCountsEveryProbeAndStageClocksTelescope) {
  RestoreTracer restore;
  obs::Tracer::global().set_enabled(true);

  LiveGateway gw;
  std::optional<GatewayClient> client =
      GatewayClient::connect("127.0.0.1", gw.listener.port());
  ASSERT_TRUE(client.has_value());
  const auto scrape = [&client] { return binary_scrape(*client); };

  constexpr std::uint64_t kProbes = 32;
  const auto queries = test_queries(kProbes);
  ASSERT_FALSE(queries.empty());
  const std::optional<obs::MetricsSnapshot> before = scrape();
  ASSERT_TRUE(before.has_value());
  Histogram client_us = Histogram::latency_us();
  for (std::uint64_t i = 0; i < kProbes; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(client->locate("bldg-A", queries[i % queries.size()]).ok());
    client_us.record(std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
  }
  const std::optional<obs::MetricsSnapshot> after = scrape();
  ASSERT_TRUE(after.has_value());

  const obs::MetricSample* submitted_before = before->find("noble_fleet_submitted");
  const obs::MetricSample* submitted_after = after->find("noble_fleet_submitted");
  ASSERT_NE(submitted_before, nullptr);
  ASSERT_NE(submitted_after, nullptr);
  EXPECT_EQ(submitted_after->counter_value - submitted_before->counter_value, kProbes);

  const Histogram e2e = histogram_delta(*after, *before, "noble_trace_e2e_us");
  ASSERT_EQ(e2e.count(), kProbes);
  double stage_mean_sum = 0.0;
  double stage_p50_sum = 0.0;
  for (std::size_t s = 0; s < obs::kNumStages; ++s) {
    const Histogram stage =
        histogram_delta(*after, *before, "noble_stage_latency_us",
                        {{"stage", obs::stage_name(static_cast<obs::Stage>(s))}});
    stage_mean_sum += stage.count() > 0 ? stage.mean() : 0.0;
    stage_p50_sum += stage.percentile(50.0);
  }
  const double e2e_mean = e2e.mean();
  const double e2e_p50 = e2e.percentile(50.0);
  EXPECT_LE(std::abs(stage_mean_sum - e2e_mean), 0.01 * e2e_mean + 1.0)
      << "stage means sum " << stage_mean_sum << " us vs e2e mean " << e2e_mean;
  EXPECT_GE(stage_p50_sum, 0.25 * e2e_p50)
      << "stage p50 sum " << stage_p50_sum << " us vs e2e p50 " << e2e_p50;
  EXPECT_LE(stage_p50_sum, 2.0 * e2e_p50 + 10.0)
      << "stage p50 sum " << stage_p50_sum << " us vs e2e p50 " << e2e_p50;

  // Light load is far below saturation: the client-side p99 is a finite,
  // positive latency.
  const double p99 = summarize_latency_us(client_us).p99_us;
  EXPECT_GT(p99, 0.0);
  EXPECT_LT(p99, 1e9);
  EXPECT_EQ(gw.listener.counters().malformed_frames, 0u);
}

// With the tracer switched off the gateway serves the same fixes and the
// trace instruments stand still: no trace is started, and no decode stage
// is clocked, between two binary scrapes that bracket the traffic.
TEST(GatewayListener, TracingOffServesIdenticallyAndRecordsNoTraces) {
  RestoreTracer restore;
  obs::Tracer::global().set_enabled(false);

  LiveGateway gw;
  std::optional<GatewayClient> client =
      GatewayClient::connect("127.0.0.1", gw.listener.port());
  ASSERT_TRUE(client.has_value());
  const auto queries = test_queries(16);
  ASSERT_FALSE(queries.empty());
  const std::optional<obs::MetricsSnapshot> before = binary_scrape(*client);
  ASSERT_TRUE(before.has_value());
  for (const auto& q : queries) {
    const WireResult answer = client->locate("bldg-A", q);
    ASSERT_TRUE(answer.ok());
    EXPECT_TRUE(answer.fix == wifi_localizer().locate(q));
  }
  const std::optional<obs::MetricsSnapshot> after = binary_scrape(*client);
  ASSERT_TRUE(after.has_value());

  const obs::MetricSample* started_before = before->find("noble_traces_started");
  const obs::MetricSample* started_after = after->find("noble_traces_started");
  ASSERT_NE(started_before, nullptr);
  ASSERT_NE(started_after, nullptr);
  EXPECT_EQ(started_after->counter_value, started_before->counter_value);
  EXPECT_EQ(histogram_delta(*after, *before, "noble_stage_latency_us",
                            {{"stage", "decode"}})
                .count(),
            0u);
}

// ---------------------------------------------------------------------------
// Router::queue_depths() — the per-shard/per-engine snapshot behind the
// stats page's depth gauges (new in this PR alongside the gateway).
// ---------------------------------------------------------------------------

TEST(RouterQueueDepths, SnapshotMatchesTopologyAndFleetGauge) {
  fleet::Router router;
  for (const char* key : {"bldg-A", "bldg-B"}) {
    fleet::ShardConfig shard;
    shard.key = key;
    shard.engines = 2;
    shard.engine.workers = 1;
    router.add_shard(shard, wifi_localizer());
  }
  const std::vector<fleet::ShardDepths> depths = router.queue_depths();
  ASSERT_EQ(depths.size(), 2u);
  EXPECT_EQ(depths[0].shard, "bldg-A");  // registry order
  EXPECT_EQ(depths[1].shard, "bldg-B");
  std::size_t total = 0;
  for (const auto& shard : depths) {
    EXPECT_EQ(shard.engines.size(), 2u);
    for (std::size_t depth : shard.engines) total += depth;
  }
  EXPECT_EQ(total, 0u) << "idle fleet must snapshot empty queues";
  EXPECT_EQ(router.stats().total.queue_depth, 0u)
      << "the FleetStats gauge is the same quantity, summed";
}

}  // namespace
}  // namespace noble::gateway
