#include "cluster/coordinator.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/hash.h"
#include "gateway/wire.h"
#include "net/socket.h"
#include "serve/artifact.h"
#include "serve/wifi_localizer.h"

namespace noble::cluster {

namespace wire = gateway::wire;

namespace {

std::string hex_digest(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(digest));
  return buf;
}

std::string read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return std::move(ss).str();
}

}  // namespace

Coordinator::Coordinator(CoordinatorConfig config)
    : config_(std::move(config)), server_(*this, config_.server) {}

Coordinator::~Coordinator() { stop(); }

bool Coordinator::start() {
  if (!server_.start()) return false;
  if (!config_.model_dir.empty() && config_.poll_ms > 0 &&
      !watch_running_.exchange(true)) {
    watch_thread_ = std::thread([this] { watch_loop(); });
  }
  return true;
}

void Coordinator::stop() {
  if (watch_running_.exchange(false)) {
    {
      std::lock_guard<std::mutex> lock(watch_mu_);
    }
    watch_cv_.notify_all();
  }
  if (watch_thread_.joinable()) watch_thread_.join();
  server_.stop();
}

void Coordinator::log_line(std::string line) {
  std::lock_guard<std::mutex> lock(log_mu_);
  log_.push_back(std::move(line));
}

std::vector<std::string> Coordinator::rollout_log() const {
  std::lock_guard<std::mutex> lock(log_mu_);
  return log_;
}

void Coordinator::set_probe_queries(std::string_view shard,
                                    std::vector<serve::RssiVector> queries) {
  std::lock_guard<std::mutex> lock(probes_mu_);
  probe_queries_[std::string(shard)] = std::move(queries);
}

CoordinatorCounters Coordinator::counters() const {
  CoordinatorCounters out;
  out.heartbeats = heartbeats_.value();
  out.members_joined = members_joined_.value();
  out.members_died = members_died_.value();
  out.rollouts_started = rollouts_started_.value();
  out.rollouts_committed = rollouts_committed_.value();
  out.rollouts_failed = rollouts_failed_.value();
  out.probes_matched = probes_matched_.value();
  out.probes_mismatched = probes_mismatched_.value();
  return out;
}

// --- membership --------------------------------------------------------------

std::vector<proto::NodeInfo> Coordinator::membership_locked() {
  const auto now = std::chrono::steady_clock::now();
  const auto ttl = std::chrono::milliseconds(config_.dead_after_ms);
  std::vector<proto::NodeInfo> out;
  out.reserve(members_.size());
  for (auto& [name, member] : members_) {
    const bool alive = (now - member.last_beat) <= ttl;
    if (member.was_alive && !alive) {
      members_died_.inc();
      log_line("member " + name + " died (no heartbeat)");
    }
    member.was_alive = alive;
    proto::NodeInfo info = member.info;
    info.alive = alive;
    out.push_back(std::move(info));
  }
  return out;
}

std::vector<proto::NodeInfo> Coordinator::members() {
  std::lock_guard<std::mutex> lock(members_mu_);
  return membership_locked();
}

bool Coordinator::on_frame(net::ServerConn& conn, net::Frame frame, std::uint64_t) {
  const auto type = frame.type.as<proto::MsgType>();
  if (type == proto::MsgType::kHello || type == proto::MsgType::kHeartbeat) {
    proto::NodeInfo info;
    if (!proto::decode_node_info_body(frame.body, info) || info.name.empty()) {
      conn.fail(frame.request_id, "malformed node_info body");
      return true;
    }
    heartbeats_.inc();
    net::Frame reply;
    reply.type = proto::MsgType::kMembership;
    reply.request_id = frame.request_id;
    {
      std::lock_guard<std::mutex> lock(members_mu_);
      auto [it, inserted] = members_.try_emplace(info.name);
      if (inserted) {
        members_joined_.inc();
        log_line("member " + info.name + " joined (" + info.host + ":" +
                 std::to_string(info.port) + ")");
      } else if (!it->second.was_alive) {
        log_line("member " + info.name + " rejoined");
      }
      it->second.info = std::move(info);
      it->second.info.alive = true;
      it->second.last_beat = std::chrono::steady_clock::now();
      it->second.was_alive = true;
      reply.body = proto::encode_membership_body(membership_locked());
    }
    conn.send(reply);
    return true;
  }
  // In-vocabulary but wrong direction: rollout replies arrive on the
  // coordinator's own client sockets, never here.
  conn.fail(frame.request_id, "unexpected message type for the coordinator");
  return true;
}

// --- rollout watcher ---------------------------------------------------------

void Coordinator::watch_loop() {
  while (watch_running_.load(std::memory_order_acquire)) {
    scan_model_dir();
    std::unique_lock<std::mutex> lock(watch_mu_);
    watch_cv_.wait_for(lock, std::chrono::milliseconds(config_.poll_ms), [this] {
      return !watch_running_.load(std::memory_order_acquire);
    });
  }
}

void Coordinator::scan_model_dir() {
  std::lock_guard<std::mutex> scan_lock(scan_mu_);
  if (config_.model_dir.empty()) return;
  std::error_code ec;
  std::filesystem::directory_iterator dir(config_.model_dir, ec);
  if (ec) return;
  for (const auto& entry : dir) {
    std::error_code file_ec;
    if (!entry.is_regular_file(file_ec) || file_ec) continue;
    const std::string path = entry.path().string();
    const std::string shard = entry.path().stem().string();
    if (shard.empty()) continue;
    const std::string bytes = read_file_bytes(path);
    if (bytes.empty()) continue;  // vanished or mid-write; next poll retries
    const std::uint64_t file_fnv = common::fnv1a64(bytes);
    auto it = watched_.find(path);
    std::uint64_t digest = 0;
    if (it != watched_.end() && it->second.file_fnv == file_fnv) {
      digest = it->second.artifact_digest;  // unchanged file: cached identity
    } else {
      // New or rewritten: establish the artifact identity the fleet will
      // converge on. Non-wifi / unreadable artifacts are remembered with
      // digest 0 so they are not re-parsed every poll.
      const auto kind = serve::artifact_kind(path);
      if (kind && *kind == serve::kWifiKind) {
        if (auto wifi = serve::WifiLocalizer::load(path)) {
          digest = wifi->artifact_digest();
          log_line("artifact " + shard + " digest=" + hex_digest(digest) + " at " +
                   path);
        }
      }
      watched_[path] = WatchedFile{file_fnv, digest};
    }
    if (digest == 0) continue;
    // Roll only when an alive member still serves this shard on different
    // weights — first scans of an already-converged fleet are no-ops, and
    // late joiners with stale artifacts get picked up on later polls.
    bool divergent = false;
    {
      std::lock_guard<std::mutex> lock(members_mu_);
      for (const proto::NodeInfo& member : membership_locked()) {
        if (!member.alive) continue;
        for (const proto::ShardState& state : member.shards) {
          if (state.key == shard && state.digest != digest) {
            divergent = true;
          }
        }
      }
    }
    if (divergent) run_rollout(shard, path, digest);
  }
}

bool Coordinator::run_rollout(const std::string& shard, const std::string& path,
                              std::uint64_t digest) {
  rollouts_started_.inc();
  log_line("rollout " + shard + " digest=" + hex_digest(digest) + " started");

  std::vector<proto::NodeInfo> targets;
  {
    std::lock_guard<std::mutex> lock(members_mu_);
    for (proto::NodeInfo& member : membership_locked()) {
      if (!member.alive) continue;
      for (const proto::ShardState& state : member.shards) {
        if (state.key == shard) {
          targets.push_back(std::move(member));
          break;
        }
      }
    }
  }
  if (targets.empty()) {
    rollouts_failed_.inc();
    log_line("rollout " + shard + " failed: no alive member serves the shard");
    return false;
  }
  // Deterministic canary choice: lowest node name.
  std::sort(targets.begin(), targets.end(),
            [](const proto::NodeInfo& a, const proto::NodeInfo& b) {
              return a.name < b.name;
            });

  std::vector<serve::RssiVector> probes;
  {
    std::lock_guard<std::mutex> lock(probes_mu_);
    auto it = probe_queries_.find(shard);
    if (it != probe_queries_.end()) probes = it->second;
  }
  // The coordinator's own copy of the artifact is the probe reference: the
  // canary's spill answers must be byte-identical to it.
  std::optional<serve::WifiLocalizer> reference;
  if (!probes.empty()) {
    reference = serve::WifiLocalizer::load(path);
    if (!reference || reference->artifact_digest() != digest) {
      rollouts_failed_.inc();
      log_line("rollout " + shard + " failed: reference artifact reload failed");
      return false;
    }
  }

  const int timeout_ms = static_cast<int>(config_.rollout_timeout_ms);
  const auto command = [&](const proto::NodeInfo& node,
                           proto::RolloutStage stage) -> bool {
    std::optional<net::FrameSocket> sock =
        net::FrameSocket::connect(node.host, node.port, proto::message_set());
    if (!sock) {
      log_line(std::string(proto::rollout_stage_name(stage)) + " " + node.name +
               " failed: connect refused");
      return false;
    }
    proto::RolloutCommand cmd;
    cmd.shard = shard;
    cmd.artifact_path = path;
    cmd.digest = digest;
    cmd.stage = stage;
    net::Frame frame;
    frame.type = proto::MsgType::kRolloutCommand;
    frame.request_id = 1;
    frame.body = proto::encode_rollout_command_body(cmd);
    if (!sock->send_frame(frame)) return false;
    std::optional<net::Frame> reply = sock->recv_frame(timeout_ms);
    proto::RolloutReport report;
    if (!reply || reply->type != proto::MsgType::kRolloutStatus ||
        !proto::decode_rollout_report_body(reply->body, report)) {
      log_line(std::string(proto::rollout_stage_name(stage)) + " " + node.name +
               " failed: no rollout status");
      return false;
    }
    if (report.status != static_cast<std::uint32_t>(wire::Status::kOk)) {
      log_line(std::string(proto::rollout_stage_name(stage)) + " " + node.name +
               " refused: " + report.message);
      return false;
    }
    if (stage == proto::RolloutStage::kCanary && reference) {
      std::uint64_t request_id = 2;
      for (const serve::RssiVector& query : probes) {
        net::Frame probe;
        probe.type = proto::MsgType::kSpillSubmit;
        probe.request_id = request_id++;
        probe.cls = engine::RequestClass::kBulk;
        probe.body = proto::encode_spill_submit_body(shard, digest, query);
        if (!sock->send_frame(probe)) return false;
        std::optional<net::Frame> result = sock->recv_frame(timeout_ms);
        if (!result || result->type != proto::MsgType::kSpillResult) {
          log_line("canary " + node.name + " failed: no probe result");
          return false;
        }
        const serve::Fix local = reference->locate(query);
        const std::string expected = wire::encode_fix_body(wire::Status::kOk, &local);
        if (result->body == expected) {
          probes_matched_.inc();
        } else {
          probes_mismatched_.inc();
          log_line("canary " + node.name + " failed: probe fix mismatch");
          return false;
        }
      }
    }
    return true;
  };

  const proto::NodeInfo& canary = targets.front();
  if (!command(canary, proto::RolloutStage::kCanary)) {
    rollouts_failed_.inc();
    log_line("rollout " + shard + " aborted at canary " + canary.name);
    return false;
  }
  log_line("canary " + canary.name + " ok (" + std::to_string(probes.size()) +
           " probes verified)");

  bool all_ok = true;
  for (std::size_t i = 1; i < targets.size(); ++i) {
    if (command(targets[i], proto::RolloutStage::kCommit)) {
      log_line("commit " + targets[i].name + " ok");
    } else {
      all_ok = false;
      log_line("commit " + targets[i].name + " failed");
    }
  }
  if (!all_ok) {
    rollouts_failed_.inc();
    return false;  // divergent members remain; the next poll retries
  }
  rollouts_committed_.inc();
  log_line("rollout " + shard + " committed to " + std::to_string(targets.size()) +
           " node(s)");
  return true;
}

}  // namespace noble::cluster
