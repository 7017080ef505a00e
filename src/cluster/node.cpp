#include "cluster/node.h"

#include <chrono>
#include <deque>
#include <future>
#include <utility>

#include "gateway/wire.h"
#include "serve/wifi_localizer.h"

namespace noble::cluster {

namespace wire = gateway::wire;

// --- per-connection server state ---------------------------------------------

namespace {

struct NodeConnState {
  struct Pending {
    std::uint64_t request_id = 0;
    std::future<serve::Fix> result;
  };
  /// Admitted spills awaiting their future. They die with the connection
  /// (the engine still fulfills its promises harmlessly); nothing else is
  /// per-connection — IMU sessions never cross nodes.
  std::deque<Pending> inflight;
};

NodeConnState& state_of(net::ServerConn& conn) {
  if (!conn.user) conn.user = std::make_shared<NodeConnState>();
  return *static_cast<NodeConnState*>(conn.user.get());
}

}  // namespace

// --- lifecycle ---------------------------------------------------------------

NodeAgent::NodeAgent(fleet::Router& router, NodeConfig config)
    : router_(router), config_(std::move(config)), server_(*this, config_.server) {}

NodeAgent::~NodeAgent() { stop(); }

bool NodeAgent::start() {
  if (!server_.start()) return false;
  if (config_.coordinator_port != 0 && !hb_running_.exchange(true)) {
    heartbeat_thread_ = std::thread([this] { heartbeat_loop(); });
  }
  return true;
}

void NodeAgent::stop() {
  if (hb_running_.exchange(false)) {
    {
      std::lock_guard<std::mutex> lock(hb_mu_);
    }
    hb_cv_.notify_all();
  }
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
  std::map<std::string, std::shared_ptr<net::Channel>> conns;
  {
    std::lock_guard<std::mutex> lock(peers_mu_);
    conns.swap(spill_conns_);
  }
  conns.clear();  // joins readers, fails outstanding spills
  // The server stops last and before any member dies: handler callbacks
  // (this object) must never run against a half-destroyed agent.
  server_.stop();
}

// --- routing surface ---------------------------------------------------------

engine::Submission NodeAgent::submit(std::string_view shard_key,
                                     const serve::RssiVector& rssi,
                                     const engine::SubmitOptions& options) {
  engine::Submission local = router_.submit(shard_key, rssi, options);
  // Cross-node spill is a bulk-only escape hatch: interactive latency can't
  // afford the extra hop, and every non-capacity verdict is final.
  if (local.status != engine::SubmitStatus::kQueueFull ||
      options.request_class != engine::RequestClass::kBulk) {
    return local;
  }
  const std::optional<std::uint64_t> digest = local_digest(shard_key);
  if (!digest) return local;
  const std::optional<proto::NodeInfo> peer = pick_spill_peer(shard_key, *digest);
  if (!peer) return local;
  engine::Submission remote = forward_spill(*peer, shard_key, *digest, rssi, options);
  if (remote.accepted()) return remote;
  return local;
}

std::optional<fleet::FleetSession> NodeAgent::open_session(std::string_view shard_key,
                                                           const geo::Point2& start) {
  return router_.open_session(shard_key, start);
}

engine::Submission NodeAgent::track(const fleet::FleetSession& session,
                                    serve::ImuSegment segment,
                                    const engine::SubmitOptions& options) {
  return router_.track(session, std::move(segment), options);
}

bool NodeAgent::close_session(const fleet::FleetSession& session) {
  return router_.close_session(session);
}

bool NodeAgent::has_shard(std::string_view shard_key) const {
  return router_.has_shard(shard_key);
}

fleet::FleetStats NodeAgent::stats() const { return router_.stats(); }

std::vector<fleet::ShardDepths> NodeAgent::queue_depths() const {
  return router_.queue_depths();
}

void NodeAgent::splice_metrics(obs::MetricsSnapshot& out) const {
  const obs::Labels labels{{"node", config_.name}};
  out.counter("noble_cluster_heartbeats_sent_total", heartbeats_sent_.value(), labels);
  out.counter("noble_cluster_membership_updates_total", membership_updates_.value(),
              labels);
  out.counter("noble_cluster_spill_forwarded_total", spill_forwarded_.value(), labels);
  out.counter("noble_cluster_spill_completed_total", spill_completed_.value(), labels);
  out.counter("noble_cluster_spill_failed_total", spill_failed_.value(), labels);
  out.counter("noble_cluster_spill_served_total", spill_served_.value(), labels);
  out.counter("noble_cluster_spill_refused_total", spill_refused_.value(), labels);
  out.counter("noble_cluster_rollouts_applied_total", rollouts_applied_.value(), labels);
  out.counter("noble_cluster_rollouts_refused_total", rollouts_refused_.value(), labels);
  out.counter("noble_cluster_protocol_errors_total", protocol_errors_.value(), labels);
  std::size_t peers_alive = 0;
  {
    std::lock_guard<std::mutex> lock(peers_mu_);
    for (const proto::NodeInfo& peer : peers_) {
      if (peer.alive && peer.name != config_.name) ++peers_alive;
    }
  }
  out.gauge_int("noble_cluster_peers_alive", peers_alive, labels);
}

NodeCounters NodeAgent::counters() const {
  NodeCounters out;
  out.heartbeats_sent = heartbeats_sent_.value();
  out.membership_updates = membership_updates_.value();
  out.spill_forwarded = spill_forwarded_.value();
  out.spill_completed = spill_completed_.value();
  out.spill_failed = spill_failed_.value();
  out.spill_served = spill_served_.value();
  out.spill_refused = spill_refused_.value();
  out.rollouts_applied = rollouts_applied_.value();
  out.rollouts_refused = rollouts_refused_.value();
  out.protocol_errors = protocol_errors_.value();
  return out;
}

std::vector<proto::NodeInfo> NodeAgent::peers() const {
  std::lock_guard<std::mutex> lock(peers_mu_);
  return peers_;
}

proto::NodeInfo NodeAgent::self_info() const {
  proto::NodeInfo info;
  info.name = config_.name;
  info.host = config_.advertise_host;
  info.port = server_.port();
  info.alive = true;
  std::map<std::string, proto::ShardState> shards;
  for (const fleet::ShardArtifact& artifact : router_.shard_artifacts()) {
    proto::ShardState state;
    state.key = artifact.shard;
    state.digest = artifact.digest;
    state.generation = artifact.generation;
    shards.emplace(artifact.shard, std::move(state));
  }
  for (const fleet::ShardDepths& depths : router_.queue_depths()) {
    auto it = shards.find(depths.shard);
    if (it == shards.end()) continue;
    for (std::size_t depth : depths.engines) it->second.total_depth += depth;
    for (std::size_t depth : depths.bulk) it->second.bulk_depth += depth;
  }
  info.shards.reserve(shards.size());
  for (auto& [key, state] : shards) {
    (void)key;
    info.shards.push_back(std::move(state));
  }
  return info;
}

// --- heartbeat ---------------------------------------------------------------

void NodeAgent::heartbeat_loop() {
  std::optional<net::FrameSocket> sock;
  bool said_hello = false;
  std::uint64_t seq = 0;
  while (hb_running_.load(std::memory_order_acquire)) {
    if (!sock || !sock->valid()) {
      sock = net::FrameSocket::connect(config_.coordinator_host,
                                       config_.coordinator_port, proto::message_set());
      said_hello = false;  // a fresh connection re-introduces itself
    }
    if (sock) {
      net::Frame beat;
      beat.type = said_hello ? proto::MsgType::kHeartbeat : proto::MsgType::kHello;
      beat.request_id = ++seq;
      beat.body = proto::encode_node_info_body(self_info());
      if (!sock->send_frame(beat)) {
        sock.reset();
      } else {
        said_hello = true;
        heartbeats_sent_.inc();
        // Bounded wait for the membership echo: a slow coordinator may cost
        // one beat of staleness but never stalls the cadence.
        std::optional<net::Frame> reply =
            sock->recv_frame(static_cast<int>(config_.heartbeat_ms));
        if (reply && reply->type == proto::MsgType::kMembership) {
          std::vector<proto::NodeInfo> members;
          if (proto::decode_membership_body(reply->body, members)) {
            apply_membership(std::move(members));
          }
        } else if (sock && !sock->valid()) {
          sock.reset();  // EOF or protocol breach; reconnect next beat
        }
      }
    }
    std::unique_lock<std::mutex> lock(hb_mu_);
    hb_cv_.wait_for(lock, std::chrono::milliseconds(config_.heartbeat_ms),
                    [this] { return !hb_running_.load(std::memory_order_acquire); });
  }
}

void NodeAgent::apply_membership(std::vector<proto::NodeInfo> members) {
  std::vector<std::shared_ptr<net::Channel>> dropped;
  {
    std::lock_guard<std::mutex> lock(peers_mu_);
    peers_ = std::move(members);
    for (auto it = spill_conns_.begin(); it != spill_conns_.end();) {
      bool keep = false;
      for (const proto::NodeInfo& peer : peers_) {
        if (peer.alive && peer.name == it->first) {
          keep = true;
          break;
        }
      }
      if (keep) {
        ++it;
      } else {
        dropped.push_back(std::move(it->second));
        it = spill_conns_.erase(it);
      }
    }
  }
  // Connection teardown (reader join + promise failure) happens outside the
  // lock so in-flight submits are never blocked behind it.
  dropped.clear();
  membership_updates_.inc();
}

// --- cross-node spill (client side) ------------------------------------------

std::optional<std::uint64_t> NodeAgent::local_digest(std::string_view shard_key) const {
  for (const fleet::ShardArtifact& artifact : router_.shard_artifacts()) {
    if (artifact.shard == shard_key) return artifact.digest;
  }
  return std::nullopt;
}

std::optional<proto::NodeInfo> NodeAgent::pick_spill_peer(std::string_view shard_key,
                                                          std::uint64_t digest) const {
  std::lock_guard<std::mutex> lock(peers_mu_);
  const proto::NodeInfo* best = nullptr;
  std::uint64_t best_depth = 0;
  for (const proto::NodeInfo& peer : peers_) {
    if (!peer.alive || peer.name == config_.name) continue;
    for (const proto::ShardState& shard : peer.shards) {
      // Digest equality is the safety condition: a peer on different
      // weights would answer, but not bit-identically.
      if (shard.key != shard_key || shard.digest != digest) continue;
      if (best == nullptr || shard.bulk_depth < best_depth) {
        best = &peer;
        best_depth = shard.bulk_depth;
      }
    }
  }
  if (best == nullptr) return std::nullopt;
  return *best;
}

std::shared_ptr<net::Channel> NodeAgent::peer_conn(const proto::NodeInfo& peer) {
  std::lock_guard<std::mutex> lock(peers_mu_);
  auto it = spill_conns_.find(peer.name);
  if (it != spill_conns_.end()) return it->second;
  std::optional<net::FrameSocket> sock =
      net::FrameSocket::connect(peer.host, peer.port, proto::message_set());
  if (!sock) return nullptr;
  auto conn = std::make_shared<net::Channel>(std::move(*sock));
  spill_conns_.emplace(peer.name, conn);
  return conn;
}

engine::Submission NodeAgent::forward_spill(const proto::NodeInfo& peer,
                                            std::string_view shard_key,
                                            std::uint64_t digest,
                                            const serve::RssiVector& rssi,
                                            const engine::SubmitOptions& options) {
  engine::Submission out;
  out.status = engine::SubmitStatus::kQueueFull;  // "could not forward" verdict
  if (options.deadline && *options.deadline <= std::chrono::steady_clock::now()) {
    out.status = engine::SubmitStatus::kExpired;
    return out;
  }
  std::shared_ptr<net::Channel> conn = peer_conn(peer);
  if (!conn) return out;
  net::Frame frame;
  frame.type = proto::MsgType::kSpillSubmit;
  wire::stamp_submit_options(options, frame);
  frame.body = proto::encode_spill_submit_body(shard_key, digest, rssi);
  // The deadline bounds the call on this side too: a peer that stays
  // connected but never answers fails the spill with DeadlineExpired.
  auto waiter = std::make_shared<std::promise<serve::Fix>>();
  std::future<serve::Fix> result = waiter->get_future();
  const bool sent = conn->call(
      std::move(frame), options.deadline,
      [waiter, notify = options.notify, &completed = spill_completed_,
       &failed = spill_failed_](net::Channel::Outcome outcome, net::Frame reply) {
        serve::Fix fix;
        const wire::Status status =
            wire::decode_fix_reply(outcome, reply, proto::MsgType::kSpillResult, fix);
        // Count before settling: a caller that sees every future resolved
        // also sees every spill accounted for.
        (status == wire::Status::kOk ? completed : failed).inc();
        wire::settle_fix(*waiter, status, fix);
        // The caller's notifier, as the engine would have called it: a
        // Listener fronting this agent wakes for the spilled answer too.
        if (notify) notify();
      });
  if (!sent) {
    std::lock_guard<std::mutex> lock(peers_mu_);
    auto it = spill_conns_.find(peer.name);
    if (it != spill_conns_.end() && it->second == conn) spill_conns_.erase(it);
    return out;
  }
  spill_forwarded_.inc();
  out.status = engine::SubmitStatus::kAccepted;
  out.result = std::move(result);
  return out;
}

// --- inbound frames (server side) --------------------------------------------

bool NodeAgent::on_frame(net::ServerConn& conn, net::Frame frame, std::uint64_t) {
  switch (frame.type.as<proto::MsgType>()) {
    case proto::MsgType::kSpillSubmit:
      serve_spill(conn, frame);
      return true;
    case proto::MsgType::kRolloutCommand:
      serve_rollout(conn, frame);
      return true;
    default:
      break;
  }
  // In-vocabulary but wrong direction (a node never receives kMembership,
  // kHello, ...): same one-error-frame discipline as a malformed body.
  protocol_errors_.inc();
  conn.fail(frame.request_id, "unexpected message type for a node");
  return true;
}

void NodeAgent::serve_spill(net::ServerConn& conn, const net::Frame& frame) {
  std::string shard_key;
  std::uint64_t digest = 0;
  serve::RssiVector rssi;
  if (!proto::decode_spill_submit_body(frame.body, shard_key, digest, rssi)) {
    protocol_errors_.inc();
    conn.fail(frame.request_id, "malformed spill_submit body");
    return;
  }
  const auto answer = [&](wire::Status status) {
    net::Frame reply;
    reply.type = proto::MsgType::kSpillResult;
    reply.request_id = frame.request_id;
    reply.body = wire::encode_fix_body(status, nullptr);
    conn.send(reply);
  };
  const std::optional<std::uint64_t> served = local_digest(shard_key);
  if (!served) {
    spill_refused_.inc();
    answer(wire::Status::kNoShard);
    return;
  }
  if (*served != digest) {
    // The bit-identity guard: mid-rollout (or a stale peer table) the
    // requester learns cleanly instead of getting a different model's fix.
    spill_refused_.inc();
    answer(wire::Status::kWrongArtifact);
    return;
  }
  engine::SubmitOptions options = wire::to_submit_options(frame);
  options.notify = conn.notifier();
  // Strictly local: a spilled request is never spilled again, so the worst
  // case is one hop and an honest kQueueFull, not a forwarding storm.
  engine::Submission sub = router_.submit(shard_key, rssi, options);
  if (!sub.accepted()) {
    answer(wire::from_submit_status(sub.status));
    return;
  }
  state_of(conn).inflight.push_back(
      NodeConnState::Pending{frame.request_id, std::move(sub.result)});
}

void NodeAgent::serve_rollout(net::ServerConn& conn, const net::Frame& frame) {
  proto::RolloutCommand cmd;
  if (!proto::decode_rollout_command_body(frame.body, cmd)) {
    protocol_errors_.inc();
    conn.fail(frame.request_id, "malformed rollout_command body");
    return;
  }
  proto::RolloutReport report;
  report.shard = cmd.shard;
  report.stage = cmd.stage;
  const auto reply_report = [&] {
    net::Frame reply;
    reply.type = proto::MsgType::kRolloutStatus;
    reply.request_id = frame.request_id;
    reply.body = proto::encode_rollout_report_body(report);
    conn.send(reply);
  };
  const auto refuse = [&](wire::Status status, std::string message) {
    rollouts_refused_.inc();
    report.status = static_cast<std::uint32_t>(status);
    report.message = std::move(message);
    report.digest = local_digest(cmd.shard).value_or(0);
    reply_report();
  };
  const std::optional<std::uint64_t> current = local_digest(cmd.shard);
  if (!current) {
    refuse(wire::Status::kNoShard, "unknown shard");
    return;
  }
  if (*current == cmd.digest) {
    // Idempotent: re-commanding the model a shard already serves must not
    // churn engines (and would invalidate sticky sessions for nothing) —
    // the commit stage sweeps every node, canary included.
    report.status = static_cast<std::uint32_t>(wire::Status::kOk);
    report.digest = cmd.digest;
    report.message = "already serving this artifact";
    reply_report();
    return;
  }
  // Loading + hot_swap runs on the handler thread: rollout traffic is rare
  // and small, and blocking one poll pass is simpler than a swap queue.
  std::optional<serve::WifiLocalizer> wifi = serve::WifiLocalizer::load(cmd.artifact_path);
  if (!wifi) {
    refuse(wire::Status::kStopped, "artifact load failed: " + cmd.artifact_path);
    return;
  }
  if (wifi->artifact_digest() != cmd.digest) {
    refuse(wire::Status::kWrongArtifact, "artifact digest mismatch");
    return;
  }
  if (!router_.hot_swap(cmd.shard, *wifi)) {
    refuse(wire::Status::kNoShard, "hot_swap failed");
    return;
  }
  rollouts_applied_.inc();
  report.status = static_cast<std::uint32_t>(wire::Status::kOk);
  report.digest = cmd.digest;
  report.message = proto::rollout_stage_name(cmd.stage);
  reply_report();
}

bool NodeAgent::on_service(net::ServerConn& conn) {
  if (!conn.user) return false;
  auto& state = *static_cast<NodeConnState*>(conn.user.get());
  for (auto it = state.inflight.begin(); it != state.inflight.end();) {
    if (it->result.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      ++it;
      continue;
    }
    net::Frame reply;
    reply.type = proto::MsgType::kSpillResult;
    reply.request_id = it->request_id;
    wire::Status status = wire::Status::kStopped;
    reply.body = wire::encode_ready_fix_body(it->result, &status);
    if (status == wire::Status::kOk) spill_served_.inc();
    conn.send(reply);
    it = state.inflight.erase(it);
  }
  return !state.inflight.empty();
}

}  // namespace noble::cluster
