// Cluster tests: proto body codecs (round trips, hostile bytes per frame
// type — one kError frame, peer state untouched), coordinator membership
// and heartbeat-loss death verdicts, cross-node bulk spill (bit-identical
// fixes, digest guard, a silent peer never strands a spill, a gateway
// Listener fronting a node answers spilled fixes), and the staged
// canary -> probe -> commit rollout. Overflow cases park the tight node's
// single worker first (parked_workers.h), so its bulk lane overflows on
// every run, not only when the flood outpaces the worker.
//
// The suite carries the `concurrency` CTest label: coordinator and node
// FrameServers, heartbeat threads, spill channel readers and engine workers
// all interleave here.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/coordinator.h"
#include "cluster/node.h"
#include "core/experiment.h"
#include "core/noble_wifi.h"
#include "fleet/router.h"
#include "gateway/client.h"
#include "gateway/gateway.h"
#include "gateway/wire.h"
#include "net/socket.h"
#include "parked_workers.h"
#include "serve/artifact.h"
#include "serve/wifi_localizer.h"

namespace noble::cluster {
namespace {

namespace wire = gateway::wire;
using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Fixture: one campus, two fitted models (v1 deployed, v2 the retrained
// artifact a rollout converges the fleet onto).
// ---------------------------------------------------------------------------

struct ClusterFixture {
  core::WifiExperiment exp;
  core::NobleWifiModel model_v1;
  core::NobleWifiModel model_v2;
};

const ClusterFixture& cluster_fixture() {
  static const ClusterFixture* fixture = [] {
    core::WifiExperimentConfig cfg;
    cfg.total_samples = 1000;
    cfg.seed = 611;
    auto make_config = [](std::uint64_t seed) {
      core::NobleWifiConfig mc;
      mc.quantize.tau = 6.0;
      mc.quantize.coarse_l = 24.0;
      mc.epochs = 5;
      mc.hidden_units = 24;
      mc.seed = seed;
      return mc;
    };
    auto* f = new ClusterFixture{core::make_uji_experiment(cfg),
                                 core::NobleWifiModel(make_config(7)),
                                 core::NobleWifiModel(make_config(8))};
    f->model_v1.fit(f->exp.split.train);
    f->model_v2.fit(f->exp.split.train);
    return f;
  }();
  return *fixture;
}

const serve::WifiLocalizer& localizer_v1() {
  static const serve::WifiLocalizer* l = new serve::WifiLocalizer(
      serve::WifiLocalizer::from_model(cluster_fixture().model_v1));
  return *l;
}

const serve::WifiLocalizer& localizer_v2() {
  static const serve::WifiLocalizer* l = new serve::WifiLocalizer(
      serve::WifiLocalizer::from_model(cluster_fixture().model_v2));
  return *l;
}

std::vector<serve::RssiVector> test_queries(std::size_t count) {
  const auto& samples = cluster_fixture().exp.split.test.samples;
  std::vector<serve::RssiVector> queries;
  for (std::size_t i = 0; i < count && i < samples.size(); ++i) {
    queries.push_back(samples[i].rssi);
  }
  return queries;
}

template <typename Pred>
bool wait_until(Pred pred, int timeout_ms = 10'000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(10ms);
  }
  return pred();
}

// ---------------------------------------------------------------------------
// Proto codecs: round trips.
// ---------------------------------------------------------------------------

proto::NodeInfo sample_node_info() {
  proto::NodeInfo info;
  info.name = "node-a";
  info.host = "127.0.0.1";
  info.port = 40123;
  info.alive = true;
  proto::ShardState shard;
  shard.key = "bldg-A";
  shard.digest = 0xDEADBEEFCAFEF00Dull;
  shard.generation = 7;
  shard.bulk_depth = 3;
  shard.total_depth = 11;
  info.shards.push_back(shard);
  shard.key = "bldg-B";
  shard.digest = 1;
  info.shards.push_back(shard);
  return info;
}

TEST(ClusterProto, NodeInfoBodyRoundTripsEveryField) {
  const proto::NodeInfo in = sample_node_info();
  proto::NodeInfo out;
  ASSERT_TRUE(proto::decode_node_info_body(proto::encode_node_info_body(in), out));
  EXPECT_EQ(out.name, in.name);
  EXPECT_EQ(out.host, in.host);
  EXPECT_EQ(out.port, in.port);
  EXPECT_EQ(out.alive, in.alive);
  ASSERT_EQ(out.shards.size(), in.shards.size());
  for (std::size_t i = 0; i < in.shards.size(); ++i) {
    EXPECT_EQ(out.shards[i].key, in.shards[i].key);
    EXPECT_EQ(out.shards[i].digest, in.shards[i].digest);
    EXPECT_EQ(out.shards[i].generation, in.shards[i].generation);
    EXPECT_EQ(out.shards[i].bulk_depth, in.shards[i].bulk_depth);
    EXPECT_EQ(out.shards[i].total_depth, in.shards[i].total_depth);
  }
}

TEST(ClusterProto, MembershipBodyRoundTripsAliveFlags) {
  proto::NodeInfo a = sample_node_info();
  proto::NodeInfo b = sample_node_info();
  b.name = "node-b";
  b.alive = false;
  b.shards.clear();
  const std::string body = proto::encode_membership_body({a, b});
  std::vector<proto::NodeInfo> out;
  ASSERT_TRUE(proto::decode_membership_body(body, out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].name, "node-a");
  EXPECT_TRUE(out[0].alive);
  EXPECT_EQ(out[1].name, "node-b");
  EXPECT_FALSE(out[1].alive);
  EXPECT_TRUE(out[1].shards.empty());
}

TEST(ClusterProto, SpillSubmitBodyIsBitExact) {
  const serve::RssiVector rssi = {-48.5f, -90.25f, 0.0f, -120.0f};
  const std::string body =
      proto::encode_spill_submit_body("bldg-A", 0x1234ull, rssi);
  std::string key;
  std::uint64_t digest = 0;
  serve::RssiVector out;
  ASSERT_TRUE(proto::decode_spill_submit_body(body, key, digest, out));
  EXPECT_EQ(key, "bldg-A");
  EXPECT_EQ(digest, 0x1234ull);
  ASSERT_EQ(out.size(), rssi.size());
  for (std::size_t i = 0; i < rssi.size(); ++i) {
    EXPECT_EQ(std::memcmp(&out[i], &rssi[i], sizeof(float)), 0);
  }
}

TEST(ClusterProto, RolloutBodiesRoundTrip) {
  proto::RolloutCommand cmd;
  cmd.shard = "bldg-A";
  cmd.artifact_path = "/tmp/models/bldg-A.noble";
  cmd.digest = 0xABCDull;
  cmd.stage = proto::RolloutStage::kCommit;
  proto::RolloutCommand cmd_out;
  ASSERT_TRUE(proto::decode_rollout_command_body(
      proto::encode_rollout_command_body(cmd), cmd_out));
  EXPECT_EQ(cmd_out.shard, cmd.shard);
  EXPECT_EQ(cmd_out.artifact_path, cmd.artifact_path);
  EXPECT_EQ(cmd_out.digest, cmd.digest);
  EXPECT_EQ(cmd_out.stage, cmd.stage);

  proto::RolloutReport report;
  report.shard = "bldg-A";
  report.digest = 0xABCDull;
  report.stage = proto::RolloutStage::kCanary;
  report.status = static_cast<std::uint32_t>(wire::Status::kWrongArtifact);
  report.message = "digest mismatch";
  proto::RolloutReport report_out;
  ASSERT_TRUE(proto::decode_rollout_report_body(
      proto::encode_rollout_report_body(report), report_out));
  EXPECT_EQ(report_out.shard, report.shard);
  EXPECT_EQ(report_out.digest, report.digest);
  EXPECT_EQ(report_out.stage, report.stage);
  EXPECT_EQ(report_out.status, report.status);
  EXPECT_EQ(report_out.message, report.message);
}

// ---------------------------------------------------------------------------
// Proto codecs: hostile bytes. Truncations, trailing garbage, lying counts
// and out-of-range enums must all be rejected without crashing.
// ---------------------------------------------------------------------------

TEST(ClusterProto, TruncatedBodiesAreRejectedAtEveryPrefixLength) {
  const std::string node_info = proto::encode_node_info_body(sample_node_info());
  const std::string membership =
      proto::encode_membership_body({sample_node_info()});
  const std::string spill =
      proto::encode_spill_submit_body("bldg-A", 7, {-1.0f, -2.0f});
  proto::RolloutCommand cmd;
  cmd.shard = "s";
  cmd.artifact_path = "p";
  const std::string rollout = proto::encode_rollout_command_body(cmd);
  for (std::size_t len = 0; len < node_info.size(); ++len) {
    proto::NodeInfo out;
    EXPECT_FALSE(proto::decode_node_info_body(node_info.substr(0, len), out))
        << "node_info prefix " << len;
  }
  for (std::size_t len = 0; len < membership.size(); ++len) {
    std::vector<proto::NodeInfo> out;
    EXPECT_FALSE(proto::decode_membership_body(membership.substr(0, len), out))
        << "membership prefix " << len;
  }
  for (std::size_t len = 0; len < spill.size(); ++len) {
    std::string key;
    std::uint64_t digest = 0;
    serve::RssiVector rssi;
    EXPECT_FALSE(
        proto::decode_spill_submit_body(spill.substr(0, len), key, digest, rssi))
        << "spill prefix " << len;
  }
  for (std::size_t len = 0; len < rollout.size(); ++len) {
    proto::RolloutCommand out;
    EXPECT_FALSE(proto::decode_rollout_command_body(rollout.substr(0, len), out))
        << "rollout prefix " << len;
  }
}

TEST(ClusterProto, TrailingGarbageIsRejected) {
  proto::NodeInfo info_out;
  EXPECT_FALSE(proto::decode_node_info_body(
      proto::encode_node_info_body(sample_node_info()) + "x", info_out));
  std::vector<proto::NodeInfo> members_out;
  EXPECT_FALSE(proto::decode_membership_body(
      proto::encode_membership_body({sample_node_info()}) + "x", members_out));
}

TEST(ClusterProto, LyingShardCountIsRejectedWithoutAllocating) {
  proto::NodeInfo info = sample_node_info();
  info.shards.clear();
  std::string body = proto::encode_node_info_body(info);
  // The shard count is the trailing u64; claim 2^61 entries.
  const std::uint64_t lie = 1ull << 61;
  std::memcpy(body.data() + body.size() - sizeof lie, &lie, sizeof lie);
  proto::NodeInfo out;
  EXPECT_FALSE(proto::decode_node_info_body(body, out));
}

TEST(ClusterProto, OutOfRangeStageAndPortAreRejected) {
  proto::RolloutCommand cmd;
  cmd.shard = "s";
  cmd.artifact_path = "p";
  std::string body = proto::encode_rollout_command_body(cmd);
  const std::uint32_t bad_stage = 99;
  std::memcpy(body.data() + body.size() - sizeof bad_stage, &bad_stage,
              sizeof bad_stage);
  proto::RolloutCommand out;
  EXPECT_FALSE(proto::decode_rollout_command_body(body, out));

  proto::NodeInfo info = sample_node_info();
  info.shards.clear();
  std::string node_body = proto::encode_node_info_body(info);
  // The port u32 sits after name and host (u64 len + bytes each).
  const std::size_t port_off = sizeof(std::uint64_t) + info.name.size() +
                               sizeof(std::uint64_t) + info.host.size();
  const std::uint32_t bad_port = 0x10000u;
  std::memcpy(node_body.data() + port_off, &bad_port, sizeof bad_port);
  proto::NodeInfo node_out;
  EXPECT_FALSE(proto::decode_node_info_body(node_body, node_out));
}

// ---------------------------------------------------------------------------
// Live cluster helpers.
// ---------------------------------------------------------------------------

fleet::ShardConfig shard_config(std::size_t queue_cap, std::size_t bulk_cap) {
  fleet::ShardConfig cfg;
  cfg.key = "bldg-A";
  cfg.engines = 1;
  cfg.engine.workers = 1;
  cfg.engine.max_batch = 8;
  cfg.engine.queue_cap = queue_cap;
  cfg.engine.bulk_cap = bulk_cap;
  return cfg;
}

struct LiveNode {
  LiveNode(std::string name, std::uint16_t coordinator_port,
           const fleet::ShardConfig& shard, const serve::WifiLocalizer& wifi,
           std::uint64_t heartbeat_ms = 50) {
    router.add_shard(shard, wifi);
    NodeConfig cfg;
    cfg.name = std::move(name);
    cfg.coordinator_port = coordinator_port;
    cfg.heartbeat_ms = heartbeat_ms;
    agent = std::make_unique<NodeAgent>(router, cfg);
    EXPECT_TRUE(agent->start());
  }
  fleet::Router router;
  std::unique_ptr<NodeAgent> agent;
};

/// True once `agent` sees `peer_name` alive with at least one shard — the
/// state cross-node spill routes on.
bool sees_alive_peer(const NodeAgent& agent, const std::string& peer_name) {
  for (const proto::NodeInfo& peer : agent.peers()) {
    if (peer.name == peer_name && peer.alive && !peer.shards.empty()) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Membership and heartbeat-loss death.
// ---------------------------------------------------------------------------

TEST(ClusterMembership, NodesRegisterAndSeeEachOther) {
  Coordinator coordinator(CoordinatorConfig{});
  ASSERT_TRUE(coordinator.start());
  LiveNode a("node-a", coordinator.port(), shard_config(64, 0), localizer_v1());
  LiveNode b("node-b", coordinator.port(), shard_config(64, 0), localizer_v1());
  ASSERT_TRUE(wait_until([&] {
    return sees_alive_peer(*a.agent, "node-b") && sees_alive_peer(*b.agent, "node-a");
  }));
  EXPECT_EQ(coordinator.counters().members_joined, 2u);
  // Heartbeats carry the shard's artifact identity.
  bool digest_seen = false;
  for (const proto::NodeInfo& member : coordinator.members()) {
    for (const proto::ShardState& shard : member.shards) {
      if (shard.key == "bldg-A" && shard.digest == localizer_v1().artifact_digest()) {
        digest_seen = true;
      }
    }
  }
  EXPECT_TRUE(digest_seen);
}

TEST(ClusterMembership, HeartbeatLossMarksANodeDeadAndSpillStopsTargetingIt) {
  CoordinatorConfig cc;
  cc.dead_after_ms = 300;
  Coordinator coordinator(cc);
  ASSERT_TRUE(coordinator.start());
  LiveNode a("node-a", coordinator.port(), shard_config(2, 1), localizer_v1());
  LiveNode b("node-b", coordinator.port(), shard_config(256, 0), localizer_v1());
  ASSERT_TRUE(wait_until([&] { return sees_alive_peer(*a.agent, "node-b"); }));

  // Kill B's heartbeats (and its server). A's next membership updates must
  // mark it dead, after which bulk overflow on A has nowhere to spill.
  b.agent->stop();
  ASSERT_TRUE(wait_until([&] { return !sees_alive_peer(*a.agent, "node-b"); }));
  EXPECT_GE(coordinator.counters().members_died, 1u);

  const std::uint64_t forwarded_before = a.agent->counters().spill_forwarded;
  engine::SubmitOptions bulk;
  bulk.request_class = engine::RequestClass::kBulk;
  const auto queries = test_queries(64);
  ASSERT_FALSE(queries.empty());
  test_support::ParkedWorkers parked(*a.agent, "bldg-A", queries[0], 1);
  std::vector<std::pair<std::size_t, std::future<serve::Fix>>> accepted;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    const std::size_t qi = i % queries.size();
    engine::Submission sub = a.agent->submit("bldg-A", queries[qi], bulk);
    if (sub.accepted()) {
      accepted.emplace_back(qi, std::move(sub.result));
    } else {
      EXPECT_EQ(sub.status, engine::SubmitStatus::kQueueFull);
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u) << "the tiny bulk lane must overflow";
  EXPECT_EQ(a.agent->counters().spill_forwarded, forwarded_before)
      << "spill must not target a dead peer";
  parked.release();
  // What A did accept after the death it served itself, bit-identically.
  for (auto& [qi, result] : accepted) {
    EXPECT_TRUE(result.get() == localizer_v1().locate(queries[qi])) << "query " << qi;
  }
}

// ---------------------------------------------------------------------------
// Cross-node bulk spill.
// ---------------------------------------------------------------------------

TEST(ClusterSpill, BulkOverflowSpillsToPeerBitIdentically) {
  Coordinator coordinator(CoordinatorConfig{});
  ASSERT_TRUE(coordinator.start());
  // A: one engine, bulk lane capped at 1 — floods overflow immediately.
  // B: deep queue, same artifact — the spill target.
  LiveNode a("node-a", coordinator.port(), shard_config(2, 1), localizer_v1());
  LiveNode b("node-b", coordinator.port(), shard_config(512, 0), localizer_v1());
  ASSERT_TRUE(wait_until([&] { return sees_alive_peer(*a.agent, "node-b"); }));

  engine::SubmitOptions bulk;
  bulk.request_class = engine::RequestClass::kBulk;
  const auto queries = test_queries(32);
  ASSERT_FALSE(queries.empty());
  test_support::ParkedWorkers parked(*a.agent, "bldg-A", queries[0], 1);
  std::vector<std::pair<std::size_t, std::future<serve::Fix>>> accepted;
  for (std::size_t round = 0; round < 4; ++round) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      engine::Submission sub = a.agent->submit("bldg-A", queries[i], bulk);
      if (sub.accepted()) accepted.emplace_back(i, std::move(sub.result));
    }
  }
  parked.release();
  const NodeCounters counters = a.agent->counters();
  EXPECT_GT(counters.spill_forwarded, 0u) << "the flood must overflow A's bulk lane";
  // Every accepted future resolves to the same bits direct inference gives:
  // both nodes serve the same artifact, and the wire fix body is exact.
  std::size_t settled = 0;
  for (auto& [qi, result] : accepted) {
    const serve::Fix expected = localizer_v1().locate(queries[qi]);
    try {
      const serve::Fix fix = result.get();
      EXPECT_TRUE(fix == expected) << "query " << qi;
      ++settled;
    } catch (const wire::WireRejected&) {
      // A spilled submission may still shed on B; that is a clean verdict,
      // not a correctness failure.
    }
  }
  EXPECT_GT(settled, 0u);
  EXPECT_GT(b.agent->counters().spill_served, 0u);
}

TEST(ClusterSpill, DigestMismatchIsRefusedWithWrongArtifact) {
  Coordinator coordinator(CoordinatorConfig{});
  ASSERT_TRUE(coordinator.start());
  LiveNode b("node-b", coordinator.port(), shard_config(64, 0), localizer_v1());
  std::optional<net::FrameSocket> sock =
      net::FrameSocket::connect("127.0.0.1", b.agent->port(), proto::message_set());
  ASSERT_TRUE(sock.has_value());
  const auto queries = test_queries(1);
  ASSERT_FALSE(queries.empty());
  net::Frame frame;
  frame.type = proto::MsgType::kSpillSubmit;
  frame.request_id = 9;
  frame.cls = engine::RequestClass::kBulk;
  frame.body = proto::encode_spill_submit_body(
      "bldg-A", localizer_v1().artifact_digest() ^ 1, queries.front());
  ASSERT_TRUE(sock->send_frame(frame));
  std::optional<net::Frame> reply = sock->recv_frame(5000);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, proto::MsgType::kSpillResult);
  EXPECT_EQ(reply->request_id, 9u);
  wire::Status status = wire::Status::kOk;
  serve::Fix fix;
  ASSERT_TRUE(wire::decode_fix_body(reply->body, status, fix));
  EXPECT_EQ(status, wire::Status::kWrongArtifact);
  EXPECT_EQ(b.agent->counters().spill_refused, 1u);

  // Unknown shard is its own verdict.
  frame.request_id = 10;
  frame.body = proto::encode_spill_submit_body("no-such-bldg", 1, queries.front());
  ASSERT_TRUE(sock->send_frame(frame));
  reply = sock->recv_frame(5000);
  ASSERT_TRUE(reply.has_value());
  ASSERT_TRUE(wire::decode_fix_body(reply->body, status, fix));
  EXPECT_EQ(status, wire::Status::kNoShard);
}

// An int8 shard and an fp32 shard of one model serve different fixes, so
// the spill digest guard must tell them apart: an fp32-digest spill into an
// int8 shard is refused, and an int8 node with only an fp32 peer sheds
// honestly instead of spilling.
TEST(ClusterSpill, PrecisionIsPartOfTheSpillDigest) {
  Coordinator coordinator(CoordinatorConfig{});
  ASSERT_TRUE(coordinator.start());
  fleet::ShardConfig tight_int8 = shard_config(2, 1);
  tight_int8.engine.precision = serve::OptimizedNetwork::Precision::kInt8;
  LiveNode a("node-a", coordinator.port(), tight_int8, localizer_v1());
  LiveNode b("node-b", coordinator.port(), shard_config(512, 0), localizer_v1());
  ASSERT_TRUE(wait_until([&] { return sees_alive_peer(*a.agent, "node-b"); }));
  const auto queries = test_queries(32);
  ASSERT_FALSE(queries.empty());

  std::optional<net::FrameSocket> sock =
      net::FrameSocket::connect("127.0.0.1", a.agent->port(), proto::message_set());
  ASSERT_TRUE(sock.has_value());
  net::Frame frame;
  frame.type = proto::MsgType::kSpillSubmit;
  frame.request_id = 11;
  frame.cls = engine::RequestClass::kBulk;
  frame.body = proto::encode_spill_submit_body(
      "bldg-A", localizer_v1().artifact_digest(), queries.front());
  ASSERT_TRUE(sock->send_frame(frame));
  std::optional<net::Frame> reply = sock->recv_frame(5000);
  ASSERT_TRUE(reply.has_value());
  wire::Status status = wire::Status::kOk;
  serve::Fix fix;
  ASSERT_TRUE(wire::decode_fix_body(reply->body, status, fix));
  EXPECT_EQ(status, wire::Status::kWrongArtifact);
  EXPECT_EQ(a.agent->counters().spill_refused, 1u);

  engine::SubmitOptions bulk;
  bulk.request_class = engine::RequestClass::kBulk;
  test_support::ParkedWorkers parked(*a.agent, "bldg-A", queries[0], 1);
  std::vector<std::future<serve::Fix>> accepted;
  std::size_t rejected = 0;
  for (std::size_t round = 0; round < 4; ++round) {
    for (const auto& query : queries) {
      engine::Submission sub = a.agent->submit("bldg-A", query, bulk);
      if (sub.accepted()) {
        accepted.push_back(std::move(sub.result));
      } else {
        EXPECT_EQ(sub.status, engine::SubmitStatus::kQueueFull);
        ++rejected;
      }
    }
  }
  EXPECT_GT(rejected, 0u) << "the tiny bulk lane must overflow";
  EXPECT_EQ(a.agent->counters().spill_forwarded, 0u)
      << "an int8 shard must not spill to an fp32 peer";
  EXPECT_EQ(b.agent->counters().spill_served, 0u);
  parked.release();
  for (auto& result : accepted) result.wait();
}

/// A fleet member that is only a heartbeat and a cluster port: it
/// advertises bldg-A at `digest` with an empty bulk lane (the most
/// attractive spill target there is), answers the first kSpillSubmit with a
/// wrong-type frame, and ignores every later one while keeping the
/// connection open.
class StrandingPeer final : public net::FrameHandler {
 public:
  static constexpr const char* kName = "stranding-peer";

  StrandingPeer(std::uint16_t coordinator_port, std::uint64_t digest) {
    EXPECT_TRUE(server_.start());
    heartbeat_ = std::thread([this, coordinator_port, digest] {
      heartbeat_loop(coordinator_port, digest);
    });
  }
  ~StrandingPeer() override {
    running_.store(false);
    heartbeat_.join();
    server_.stop();
  }

  const net::MessageSet& message_set() const override { return proto::message_set(); }
  bool on_frame(net::ServerConn& conn, net::Frame frame, std::uint64_t) override {
    if (frame.type == proto::MsgType::kSpillSubmit && !breached_.exchange(true)) {
      net::Frame wrong;
      wrong.type = proto::MsgType::kMembership;
      wrong.request_id = frame.request_id;
      wrong.body = proto::encode_membership_body({});
      conn.send(wrong);
    }
    return true;
  }

 private:
  void heartbeat_loop(std::uint16_t coordinator_port, std::uint64_t digest) {
    proto::NodeInfo self;
    self.name = kName;
    self.host = "127.0.0.1";
    self.port = server_.port();
    proto::ShardState shard;
    shard.key = "bldg-A";
    shard.digest = digest;
    self.shards.push_back(shard);
    std::optional<net::FrameSocket> sock;
    std::uint64_t seq = 0;
    while (running_.load()) {
      if (!sock || !sock->valid()) {
        sock = net::FrameSocket::connect("127.0.0.1", coordinator_port,
                                         proto::message_set());
        seq = 0;
      }
      if (sock) {
        net::Frame beat;
        beat.type = seq == 0 ? proto::MsgType::kHello : proto::MsgType::kHeartbeat;
        beat.request_id = ++seq;
        beat.body = proto::encode_node_info_body(self);
        if (sock->send_frame(beat)) (void)sock->recv_frame(200);  // the kMembership echo
      }
      std::this_thread::sleep_for(50ms);
    }
  }

  std::atomic<bool> running_{true};
  std::atomic<bool> breached_{false};
  net::FrameServer server_{*this};
  std::thread heartbeat_;
};

// A peer that breaks protocol once and then stays connected and silent must
// not strand a spill: every accepted future resolves by its deadline (the
// breach as a rejection, the silence as DeadlineExpired), every failure is
// counted, and stop() does not wait on the peer.
TEST(ClusterSpill, SilentPeerAfterAProtocolBreachStillResolvesEverySpill) {
  Coordinator coordinator(CoordinatorConfig{});
  ASSERT_TRUE(coordinator.start());
  LiveNode a("node-a", coordinator.port(), shard_config(2, 1), localizer_v1());
  std::uint64_t digest = 0;
  for (const fleet::ShardArtifact& artifact : a.router.shard_artifacts()) {
    if (artifact.shard == "bldg-A") digest = artifact.digest;
  }
  StrandingPeer peer(coordinator.port(), digest);
  ASSERT_TRUE(wait_until([&] { return sees_alive_peer(*a.agent, StrandingPeer::kName); }));

  const auto queries = test_queries(32);
  ASSERT_FALSE(queries.empty());
  test_support::ParkedWorkers parked(*a.agent, "bldg-A", queries[0], 1);
  std::vector<std::future<serve::Fix>> accepted;
  std::vector<std::chrono::steady_clock::time_point> deadlines;
  for (std::size_t round = 0; round < 4; ++round) {
    for (const auto& query : queries) {
      engine::SubmitOptions bulk = engine::SubmitOptions::bulk();
      bulk.expires_in_us(200'000);
      engine::Submission sub = a.agent->submit("bldg-A", query, bulk);
      if (sub.accepted()) {
        accepted.push_back(std::move(sub.result));
        deadlines.push_back(*bulk.deadline);
      }
    }
  }
  parked.release();
  EXPECT_GT(a.agent->counters().spill_forwarded, 1u)
      << "the flood must spill both into the breach and into the silence";

  std::size_t rejected = 0;
  std::size_t expired = 0;
  for (std::size_t i = 0; i < accepted.size(); ++i) {
    ASSERT_EQ(accepted[i].wait_until(deadlines[i] + 1s), std::future_status::ready)
        << "accepted submission " << i << " is stranded past its deadline";
    try {
      (void)accepted[i].get();
    } catch (const engine::DeadlineExpired&) {
      ++expired;
    } catch (const wire::WireRejected&) {
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, 1u) << "the wrong-type reply fails exactly its own spill";
  EXPECT_GT(expired, 0u);
  const NodeCounters counters = a.agent->counters();
  EXPECT_EQ(counters.spill_completed, 0u);
  EXPECT_EQ(counters.spill_failed, counters.spill_forwarded);

  const auto stop_started = std::chrono::steady_clock::now();
  a.agent->stop();
  EXPECT_LT(std::chrono::steady_clock::now() - stop_started, 2s);
}

// A gateway Listener serves any fleet::Routing, a NodeAgent included. The
// spilled fix reaches the Listener's handler thread only through the
// caller's notifier, which forward_spill's channel callback calls after
// settling: with A's worker parked, nothing else can wake that thread.
TEST(ClusterSpill, ListenerFrontingANodeAgentAnswersSpilledFixes) {
  Coordinator coordinator(CoordinatorConfig{});
  ASSERT_TRUE(coordinator.start());
  LiveNode a("node-a", coordinator.port(), shard_config(2, 1), localizer_v1());
  LiveNode b("node-b", coordinator.port(), shard_config(512, 0), localizer_v1());
  ASSERT_TRUE(wait_until([&] { return sees_alive_peer(*a.agent, "node-b"); }));
  gateway::Listener listener(*a.agent);
  ASSERT_TRUE(listener.start());
  std::optional<gateway::GatewayClient> client =
      gateway::GatewayClient::connect("127.0.0.1", listener.port());
  ASSERT_TRUE(client.has_value());
  const auto queries = test_queries(3);
  ASSERT_EQ(queries.size(), 3u);

  test_support::ParkedWorkers parked(*a.agent, "bldg-A", queries[0], 1);
  // The first bulk scan fills A's one-slot bulk lane; the second overflows
  // it and spills to B.
  const std::uint64_t queued =
      client->send_locate("bldg-A", queries[1], engine::RequestClass::kBulk, 0);
  const std::uint64_t spilled =
      client->send_locate("bldg-A", queries[2], engine::RequestClass::kBulk, 0);
  ASSERT_NE(queued, 0u);
  ASSERT_NE(spilled, 0u);
  auto reply = client->recv_fix(1000);
  ASSERT_TRUE(reply.has_value()) << "the spilled fix must wake the listener";
  EXPECT_EQ(reply->first, spilled);
  ASSERT_TRUE(reply->second.ok()) << wire::status_name(reply->second.status);
  EXPECT_TRUE(reply->second.fix == localizer_v1().locate(queries[2]));
  EXPECT_EQ(a.agent->counters().spill_forwarded, 1u);

  parked.release();
  reply = client->recv_fix(1000);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->first, queued);
  ASSERT_TRUE(reply->second.ok()) << wire::status_name(reply->second.status);
  EXPECT_TRUE(reply->second.fix == localizer_v1().locate(queries[1]));
}

// ---------------------------------------------------------------------------
// Staged rollout.
// ---------------------------------------------------------------------------

TEST(ClusterRollout, StagedRolloutCanariesProbesThenCommitsTheFleet) {
  const std::string model_dir =
      (std::filesystem::path(::testing::TempDir()) / "noble_cluster_rollout")
          .string();
  std::filesystem::create_directories(model_dir);
  const std::string artifact = model_dir + "/bldg-A.noble";

  CoordinatorConfig cc;
  cc.model_dir = model_dir;
  cc.poll_ms = 0;  // manual scans: the test drives each pass deterministically
  Coordinator coordinator(cc);
  const auto probes = test_queries(4);
  ASSERT_EQ(probes.size(), 4u);
  coordinator.set_probe_queries("bldg-A", probes);
  ASSERT_TRUE(coordinator.start());

  LiveNode a("node-a", coordinator.port(), shard_config(64, 0), localizer_v1());
  LiveNode b("node-b", coordinator.port(), shard_config(64, 0), localizer_v1());
  ASSERT_TRUE(wait_until([&] {
    return sees_alive_peer(*a.agent, "node-b") && sees_alive_peer(*b.agent, "node-a");
  }));

  // Scan with no artifact on disk: nothing to roll.
  coordinator.scan_model_dir();
  EXPECT_EQ(coordinator.counters().rollouts_started, 0u);

  // Drop the retrained artifact and scan: staged rollout, synchronously.
  ASSERT_TRUE(serve::save_model(cluster_fixture().model_v2, artifact));
  const std::uint64_t v2_digest = localizer_v2().artifact_digest();
  ASSERT_NE(v2_digest, localizer_v1().artifact_digest());
  coordinator.scan_model_dir();

  const CoordinatorCounters counters = coordinator.counters();
  EXPECT_EQ(counters.rollouts_started, 1u);
  EXPECT_EQ(counters.rollouts_committed, 1u);
  EXPECT_EQ(counters.rollouts_failed, 0u);
  EXPECT_EQ(counters.probes_matched, probes.size());
  EXPECT_EQ(counters.probes_mismatched, 0u);

  // Both routers now serve v2.
  for (fleet::Router* router : {&a.router, &b.router}) {
    const auto artifacts = router->shard_artifacts();
    ASSERT_EQ(artifacts.size(), 1u);
    EXPECT_EQ(artifacts.front().digest, v2_digest);
  }
  // Exactly one node was the canary; the other was committed.
  EXPECT_EQ(a.agent->counters().rollouts_applied + b.agent->counters().rollouts_applied,
            2u);

  // The log records the stages in order: started, canary verified, commit.
  const std::vector<std::string> log = coordinator.rollout_log();
  std::size_t started = log.size(), canary = log.size(), committed = log.size();
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (log[i].find("started") != std::string::npos && started == log.size())
      started = i;
    if (log[i].find("canary node-a ok") != std::string::npos) canary = i;
    if (log[i].find("committed") != std::string::npos) committed = i;
  }
  ASSERT_LT(started, log.size());
  ASSERT_LT(canary, log.size()) << "node-a sorts first, so it must be the canary";
  ASSERT_LT(committed, log.size());
  EXPECT_LT(started, canary);
  EXPECT_LT(canary, committed);

  // Wait for heartbeats to report v2, then re-scan: the fleet is converged,
  // so no new rollout starts.
  ASSERT_TRUE(wait_until([&] {
    std::size_t on_v2 = 0;
    for (const proto::NodeInfo& member : coordinator.members()) {
      for (const proto::ShardState& shard : member.shards) {
        if (shard.digest == v2_digest) ++on_v2;
      }
    }
    return on_v2 == 2;
  }));
  coordinator.scan_model_dir();
  EXPECT_EQ(coordinator.counters().rollouts_started, 1u);

  // Post-rollout serving is bit-identical to the new artifact, end to end.
  engine::SubmitOptions opts;
  for (const auto& q : probes) {
    engine::Submission sub = b.agent->submit("bldg-A", q, opts);
    ASSERT_TRUE(sub.accepted());
    EXPECT_TRUE(sub.result.get() == localizer_v2().locate(q));
  }
  std::filesystem::remove_all(model_dir);
}

TEST(ClusterRollout, WrongDigestCommandIsRefusedByTheNode) {
  Coordinator coordinator(CoordinatorConfig{});
  ASSERT_TRUE(coordinator.start());
  LiveNode a("node-a", coordinator.port(), shard_config(64, 0), localizer_v1());

  const std::string model_dir =
      (std::filesystem::path(::testing::TempDir()) / "noble_cluster_refuse")
          .string();
  std::filesystem::create_directories(model_dir);
  const std::string artifact = model_dir + "/bldg-A.noble";
  ASSERT_TRUE(serve::save_model(cluster_fixture().model_v2, artifact));

  std::optional<net::FrameSocket> sock =
      net::FrameSocket::connect("127.0.0.1", a.agent->port(), proto::message_set());
  ASSERT_TRUE(sock.has_value());
  proto::RolloutCommand cmd;
  cmd.shard = "bldg-A";
  cmd.artifact_path = artifact;
  cmd.digest = 0xBAD0BAD0ull;  // not what the artifact hashes to
  cmd.stage = proto::RolloutStage::kCanary;
  net::Frame frame;
  frame.type = proto::MsgType::kRolloutCommand;
  frame.request_id = 1;
  frame.body = proto::encode_rollout_command_body(cmd);
  ASSERT_TRUE(sock->send_frame(frame));
  std::optional<net::Frame> reply = sock->recv_frame(10'000);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, proto::MsgType::kRolloutStatus);
  proto::RolloutReport report;
  ASSERT_TRUE(proto::decode_rollout_report_body(reply->body, report));
  EXPECT_EQ(report.status, static_cast<std::uint32_t>(wire::Status::kWrongArtifact));
  // The shard still serves v1.
  EXPECT_EQ(a.router.shard_artifacts().front().digest,
            localizer_v1().artifact_digest());
  EXPECT_EQ(a.agent->counters().rollouts_refused, 1u);
  EXPECT_EQ(a.agent->counters().rollouts_applied, 0u);
  std::filesystem::remove_all(model_dir);
}

// An int8 shard advertises its model digest precision-tagged, while the
// coordinator and rollout commands name the bare model digest. A fleet that
// already serves the artifact — one shard at int8 — is converged: a scan
// starts no rollout, and a commit command to the int8 node is a no-op that
// neither reloads the artifact nor swaps the shard.
TEST(ClusterRollout, ConvergedFleetWithAnInt8ShardIsLeftAlone) {
  const std::string model_dir =
      (std::filesystem::path(::testing::TempDir()) / "noble_cluster_int8_converged")
          .string();
  std::filesystem::create_directories(model_dir);
  const std::string artifact = model_dir + "/bldg-A.noble";
  ASSERT_TRUE(serve::save_model(cluster_fixture().model_v1, artifact));
  const std::uint64_t v1_digest = localizer_v1().artifact_digest();

  CoordinatorConfig cc;
  cc.model_dir = model_dir;
  cc.poll_ms = 0;
  Coordinator coordinator(cc);
  ASSERT_TRUE(coordinator.start());
  fleet::ShardConfig int8_shard = shard_config(64, 0);
  int8_shard.engine.precision = serve::OptimizedNetwork::Precision::kInt8;
  LiveNode a("node-a", coordinator.port(), shard_config(64, 0), localizer_v1());
  LiveNode b("node-b", coordinator.port(), int8_shard, localizer_v1());
  ASSERT_TRUE(wait_until([&] {
    std::size_t reporting = 0;
    for (const proto::NodeInfo& member : coordinator.members()) {
      if (member.alive && !member.shards.empty()) ++reporting;
    }
    return reporting == 2;
  }));
  const fleet::ShardArtifact before = b.router.shard_artifacts().front();
  ASSERT_NE(before.digest, v1_digest);
  ASSERT_TRUE(fleet::serves_model(before.digest, v1_digest));

  coordinator.scan_model_dir();
  EXPECT_EQ(coordinator.counters().rollouts_started, 0u);

  std::optional<net::FrameSocket> sock =
      net::FrameSocket::connect("127.0.0.1", b.agent->port(), proto::message_set());
  ASSERT_TRUE(sock.has_value());
  proto::RolloutCommand cmd;
  cmd.shard = "bldg-A";
  cmd.artifact_path = artifact;
  cmd.digest = v1_digest;
  cmd.stage = proto::RolloutStage::kCommit;
  net::Frame frame;
  frame.type = proto::MsgType::kRolloutCommand;
  frame.request_id = 1;
  frame.body = proto::encode_rollout_command_body(cmd);
  ASSERT_TRUE(sock->send_frame(frame));
  std::optional<net::Frame> reply = sock->recv_frame(10'000);
  ASSERT_TRUE(reply.has_value());
  proto::RolloutReport report;
  ASSERT_TRUE(proto::decode_rollout_report_body(reply->body, report));
  EXPECT_EQ(report.status, static_cast<std::uint32_t>(wire::Status::kOk));
  EXPECT_EQ(report.message, "already serving this artifact");

  EXPECT_EQ(a.agent->counters().rollouts_applied, 0u);
  EXPECT_EQ(b.agent->counters().rollouts_applied, 0u);
  const fleet::ShardArtifact after = b.router.shard_artifacts().front();
  EXPECT_EQ(after.digest, before.digest);
  EXPECT_EQ(after.generation, before.generation) << "the int8 shard must not be swapped";
  std::filesystem::remove_all(model_dir);
}

// ---------------------------------------------------------------------------
// Hostile bytes against live cluster servers: every violation answers one
// kError frame, the connection closes, and the server keeps serving.
// ---------------------------------------------------------------------------

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
    if (n <= 0) return received;
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
  ASSERT_EQ(net::decode_frame(proto::message_set(), response, frame),
            net::DecodeResult::kFrame)
      << "the server must answer with a well-formed error frame before closing";
  EXPECT_EQ(frame.type.raw(), net::kErrorType);
  std::string reason;
  EXPECT_TRUE(net::decode_text_body(frame.body, reason));
  EXPECT_FALSE(reason.empty());
  EXPECT_TRUE(response.empty()) << "nothing may follow the error frame";
}

std::string frame_with_garbage_body(proto::MsgType type) {
  net::Frame frame;
  frame.type = type;
  frame.request_id = 5;
  frame.body = "\xff\xfe\xfd";
  return net::encode_frame(frame);
}

TEST(ClusterHostileBytes, NodeAnswersOneErrorFrameForEveryViolation) {
  Coordinator coordinator(CoordinatorConfig{});
  ASSERT_TRUE(coordinator.start());
  LiveNode a("node-a", coordinator.port(), shard_config(64, 0), localizer_v1());
  const std::uint16_t port = a.agent->port();

  // Framing-level: bad magic.
  {
    net::Frame frame;
    frame.type = proto::MsgType::kHeartbeat;
    std::string bytes = net::encode_frame(frame);
    bytes[4] ^= 0x40;
    bytes[5] ^= 0x40;
    expect_error_then_close(port, bytes);
  }
  // Framing-level: lying (oversized) length prefix.
  {
    const std::uint32_t huge = 0x7FFFFFFFu;
    std::string bytes(sizeof huge, '\0');
    std::memcpy(bytes.data(), &huge, sizeof huge);
    expect_error_then_close(port, bytes);
  }
  // Framing-level: unknown message type for the cluster vocabulary (a
  // gateway kLocate is not cluster traffic).
  {
    net::Frame frame;
    frame.type = net::TypeId(1u);
    expect_error_then_close(port, net::encode_frame(frame));
  }
  // Body-level: garbage bodies for both frame types a node serves.
  expect_error_then_close(port, frame_with_garbage_body(proto::MsgType::kSpillSubmit));
  expect_error_then_close(port,
                          frame_with_garbage_body(proto::MsgType::kRolloutCommand));
  // Direction-level: a node never accepts membership frames.
  {
    net::Frame frame;
    frame.type = proto::MsgType::kMembership;
    frame.body = proto::encode_membership_body({});
    expect_error_then_close(port, net::encode_frame(frame));
  }
  EXPECT_GE(a.agent->counters().protocol_errors, 3u);

  // Peer state untouched: the same server still serves a valid spill.
  std::optional<net::FrameSocket> sock =
      net::FrameSocket::connect("127.0.0.1", port, proto::message_set());
  ASSERT_TRUE(sock.has_value());
  const auto queries = test_queries(1);
  net::Frame frame;
  frame.type = proto::MsgType::kSpillSubmit;
  frame.request_id = 77;
  frame.cls = engine::RequestClass::kBulk;
  frame.body = proto::encode_spill_submit_body(
      "bldg-A", localizer_v1().artifact_digest(), queries.front());
  ASSERT_TRUE(sock->send_frame(frame));
  std::optional<net::Frame> reply = sock->recv_frame(10'000);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, proto::MsgType::kSpillResult);
  wire::Status status = wire::Status::kStopped;
  serve::Fix fix;
  ASSERT_TRUE(wire::decode_fix_body(reply->body, status, fix));
  EXPECT_EQ(status, wire::Status::kOk);
  EXPECT_TRUE(fix == localizer_v1().locate(queries.front()));
}

TEST(ClusterHostileBytes, CoordinatorAnswersOneErrorFrameForEveryViolation) {
  Coordinator coordinator(CoordinatorConfig{});
  ASSERT_TRUE(coordinator.start());
  const std::uint16_t port = coordinator.port();

  // Body-level: garbage hello/heartbeat bodies.
  expect_error_then_close(port, frame_with_garbage_body(proto::MsgType::kHello));
  expect_error_then_close(port, frame_with_garbage_body(proto::MsgType::kHeartbeat));
  // A hello naming nobody is a violation too.
  {
    proto::NodeInfo anonymous;
    net::Frame frame;
    frame.type = proto::MsgType::kHello;
    frame.body = proto::encode_node_info_body(anonymous);
    expect_error_then_close(port, net::encode_frame(frame));
  }
  // Direction-level: spill traffic never lands on the coordinator.
  expect_error_then_close(port, frame_with_garbage_body(proto::MsgType::kSpillSubmit));

  // Peer state untouched: a real node still registers afterwards.
  LiveNode a("node-a", port, shard_config(64, 0), localizer_v1());
  ASSERT_TRUE(wait_until([&] { return coordinator.counters().members_joined == 1; }));
}

}  // namespace
}  // namespace noble::cluster
