// noble::cluster node agent — one fleet node: a local fleet::Router wrapped
// in the cluster's routing surface, plus the node's half of every cluster
// conversation.
//
//   gateway ── fleet::Routing ──▶ NodeAgent ──▶ local Router (shards, engines)
//                                   │  │
//          bulk kQueueFull ─ spill ─┘  ├── FrameServer :port  (peer spill,
//                                      │        coordinator rollout commands)
//                                      └── heartbeat thread ──▶ coordinator
//                                               ◀── kMembership (peer table)
//
// The agent implements fleet::Routing so a gateway Listener (or any other
// front end written against the routing interface) serves a multi-node
// fleet without knowing it: submit() first tries the local router, and only
// when a *bulk* submission comes back kQueueFull does it forward the scan
// to the least-loaded alive peer whose shard reports the same artifact
// digest — cross-node spill extends the router's own least-depth bulk
// spill one level up, and the digest guard keeps the answer bit-identical
// to what the local shard would have produced. Interactive traffic never
// spills across nodes (a network hop is exactly the latency an interactive
// deadline cannot afford). A spilled future settles on the spill channel's
// reader thread, which then calls the caller's SubmitOptions::notify, so a
// Listener fronting the agent wakes for a spilled fix as for a local one.
//
// Inbound, the agent's FrameServer serves two conversations over the shared
// net transport: kSpillSubmit from peers (served strictly locally — a
// spilled request never re-spills, so an overloaded fleet degrades to
// explicit kQueueFull instead of a forwarding storm) and kRolloutCommand
// from the coordinator (load the artifact, verify its digest, hot_swap).
#ifndef NOBLE_CLUSTER_NODE_H_
#define NOBLE_CLUSTER_NODE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/proto.h"
#include "fleet/router.h"
#include "net/channel.h"
#include "net/server.h"
#include "net/socket.h"
#include "obs/metrics.h"

namespace noble::cluster {

struct NodeConfig {
  /// Fleet-unique node name (the peer-table key). Must be non-empty.
  std::string name = "node";
  /// Host peers use to reach this node's cluster server.
  std::string advertise_host = "127.0.0.1";
  /// Coordinator endpoint for hello/heartbeat. Port 0 disables the
  /// heartbeat thread (standalone node: no membership, no spill targets).
  std::string coordinator_host = "127.0.0.1";
  std::uint16_t coordinator_port = 0;
  /// The node's own cluster FrameServer (spill + rollout traffic).
  net::ServerConfig server;
  /// Heartbeat cadence. Each beat also refreshes the peer table from the
  /// coordinator's kMembership reply.
  std::uint64_t heartbeat_ms = 200;
};

/// Node-side cluster counters (monotonic; exposed via splice_metrics).
struct NodeCounters {
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t membership_updates = 0;
  std::uint64_t spill_forwarded = 0;  ///< bulk submissions sent to a peer
  std::uint64_t spill_completed = 0;  ///< forwarded and answered kOk
  std::uint64_t spill_failed = 0;     ///< forwarded, then rejected/expired/lost
  std::uint64_t spill_served = 0;     ///< peer requests served locally
  std::uint64_t spill_refused = 0;    ///< peer requests refused (digest/shard)
  std::uint64_t rollouts_applied = 0;
  std::uint64_t rollouts_refused = 0;
  std::uint64_t protocol_errors = 0;  ///< malformed bodies from peers
};

class NodeAgent final : public fleet::Routing, private net::FrameHandler {
 public:
  /// The router must outlive the agent. Construction is passive; start()
  /// binds the server and begins heartbeating.
  explicit NodeAgent(fleet::Router& router, NodeConfig config = {});
  ~NodeAgent() override;

  NodeAgent(const NodeAgent&) = delete;
  NodeAgent& operator=(const NodeAgent&) = delete;

  bool start();
  void stop();
  bool running() const { return server_.running(); }
  /// Actual cluster-server port (resolves port 0 after start()).
  std::uint16_t port() const { return server_.port(); }
  const NodeConfig& config() const { return config_; }

  // --- fleet::Routing --------------------------------------------------------
  engine::Submission submit(std::string_view shard_key, const serve::RssiVector& rssi,
                            const engine::SubmitOptions& options = {}) override;
  std::optional<fleet::FleetSession> open_session(std::string_view shard_key,
                                                  const geo::Point2& start) override;
  engine::Submission track(const fleet::FleetSession& session, serve::ImuSegment segment,
                           const engine::SubmitOptions& options = {}) override;
  bool close_session(const fleet::FleetSession& session) override;
  bool has_shard(std::string_view shard_key) const override;
  fleet::FleetStats stats() const override;
  std::vector<fleet::ShardDepths> queue_depths() const override;
  void splice_metrics(obs::MetricsSnapshot& out) const override;

  NodeCounters counters() const;
  /// Latest membership view from the coordinator (self included).
  std::vector<proto::NodeInfo> peers() const;
  /// What this node would report in its next heartbeat.
  proto::NodeInfo self_info() const;

 private:
  // --- net::FrameHandler -----------------------------------------------------
  const net::MessageSet& message_set() const override { return proto::message_set(); }
  bool on_frame(net::ServerConn& conn, net::Frame frame, std::uint64_t recv_ns) override;
  bool on_service(net::ServerConn& conn) override;

  void heartbeat_loop();
  void apply_membership(std::vector<proto::NodeInfo> members);
  /// The artifact digest the local router serves `shard_key` at; nullopt
  /// when the shard is not here.
  std::optional<std::uint64_t> local_digest(std::string_view shard_key) const;
  /// Picks the spill target for `shard_key`: alive, not self, same artifact
  /// digest, shallowest reported bulk depth. nullopt when no peer qualifies.
  std::optional<proto::NodeInfo> pick_spill_peer(std::string_view shard_key,
                                                 std::uint64_t digest) const;
  std::shared_ptr<net::Channel> peer_conn(const proto::NodeInfo& peer);
  engine::Submission forward_spill(const proto::NodeInfo& peer, std::string_view shard_key,
                                   std::uint64_t digest, const serve::RssiVector& rssi,
                                   const engine::SubmitOptions& options);
  void serve_spill(net::ServerConn& conn, const net::Frame& frame);
  void serve_rollout(net::ServerConn& conn, const net::Frame& frame);

  fleet::Router& router_;
  NodeConfig config_;
  net::FrameServer server_;

  std::thread heartbeat_thread_;
  std::atomic<bool> hb_running_{false};
  mutable std::mutex hb_mu_;
  std::condition_variable hb_cv_;

  /// Guards the peer table and the spill-connection cache together: a
  /// membership update that marks a peer dead also drops its connection
  /// under the same lock, so spill never picks a peer whose conn is being
  /// torn down.
  mutable std::mutex peers_mu_;
  std::vector<proto::NodeInfo> peers_;
  std::map<std::string, std::shared_ptr<net::Channel>> spill_conns_;  ///< by peer name

  obs::Counter heartbeats_sent_;
  obs::Counter membership_updates_;
  obs::Counter spill_forwarded_;
  obs::Counter spill_completed_;
  obs::Counter spill_failed_;
  obs::Counter spill_served_;
  obs::Counter spill_refused_;
  obs::Counter rollouts_applied_;
  obs::Counter rollouts_refused_;
  obs::Counter protocol_errors_;
};

}  // namespace noble::cluster

#endif  // NOBLE_CLUSTER_NODE_H_
