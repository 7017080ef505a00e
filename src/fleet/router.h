// noble::fleet — sharded multi-engine routing over noble::engine.
//
// One Engine serves one model; a campus serves many buildings, each with its
// own model artifact and its own traffic. The Router is the front end that
// scales the engine horizontally:
//
//   clients ── submit(shard_key, scan) ──▶ Router ──▶ shard "bldg-A" ─ engine 0..k
//                                            │        shard "bldg-B" ─ engine 0..k
//                                            └──▶ FleetStats (merge()d EngineStats)
//
// A *shard* is a routing key (per building / per model artifact) plus one or
// more engines that all replicate the same model, so any engine of a shard
// answers bit-identically. Within a shard the query's fingerprint hash picks
// the primary engine — the same scan always lands on the same engine, so
// placement is deterministic. On kQueueFull the fallback is class-aware:
// interactive traffic falls through the remaining engines in consistent
// (deterministic probe) order and takes no depth locks on its latency path,
// while bulk traffic spills by *queue depth* — the least-loaded replica
// first — because a shedding bulk sweep cares about finding capacity
// anywhere in the shard. Only when every engine is full does the rejection
// reach the caller.
//
// Shards can be hot-swapped to a retrained model: the replacement engines
// take over atomically for new admissions, while the old generation drains so
// every already-accepted future still resolves. IMU sessions are sticky to
// the engine and generation that admitted them; a swap invalidates them
// (kNoSession), mirroring how a device re-anchors after a model update.
#ifndef NOBLE_FLEET_ROUTER_H_
#define NOBLE_FLEET_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "engine/engine.h"
#include "obs/metrics.h"

namespace noble::fleet {

/// One shard: routing key plus the engine fleet serving it.
struct ShardConfig {
  /// Routing key (e.g. building or artifact id). Must be non-empty.
  std::string key;
  /// Engines replicating this shard's model; > 1 adds kQueueFull headroom.
  std::size_t engines = 1;
  /// Per-engine knobs (workers, batching, queue caps).
  engine::EngineConfig engine;
  /// Content identity of the model artifact(s) this shard serves. Filled by
  /// the router at add_shard/hot_swap from the localizers' digests (callers
  /// never set it): the value two nodes compare to decide whether a spilled
  /// request lands on a replica that answers bit-identically.
  std::uint64_t artifact_digest = 0;
};

/// Handle for one streaming IMU session opened through the router. Sticky:
/// bound to the shard generation and engine that admitted it.
struct FleetSession {
  std::string shard;
  std::uint64_t generation = 0;
  std::size_t engine = 0;
  engine::SessionId id = 0;
};

/// Instantaneous per-engine queue depths of one shard, in engine order.
struct ShardDepths {
  std::string shard;
  std::vector<std::size_t> engines;
  /// Bulk-lane depth of each engine (engines[i] counts both classes;
  /// bulk[i] just the bulk lane) — the saturation signal cross-node spill
  /// reads: interactive entries outrank bulk everywhere, so total depth
  /// mistakes interactive-busy engines for bulk-full ones.
  std::vector<std::size_t> bulk;
};

/// Identity of what a shard currently serves: artifact digest + the shard
/// generation serving it. The cluster's heartbeat payload and the scrape
/// page's artifact gauges are views of this.
struct ShardArtifact {
  std::string shard;
  std::uint64_t digest = 0;
  std::uint64_t generation = 0;
};

/// Fleet-wide telemetry built by merge()-ing per-engine EngineStats.
///
/// Consistency contract for the queue-depth gauges: Router::stats() reads
/// every engine's per-class lane depths in one tight pass *before* the
/// (much slower) histogram-copying stats snapshots, then overwrites each
/// snapshot's own depths with the pass's values. Consequently
/// `total.queue_depth`, the sum of `shards[*].queue_depth` and
/// `total.interactive.queue_depth + total.bulk.queue_depth` are all the
/// same sum of per-engine reads taken within microseconds of each other —
/// never a smear of instants milliseconds apart. (Depths remain gauges: the
/// pass is near-simultaneous, not an atomic cut across engines, and the
/// *counter* fields are still read at each engine's own snapshot instant.)
struct FleetStats {
  engine::EngineStats total;  ///< merged across every engine of every shard
  std::map<std::string, engine::EngineStats> shards;  ///< merged per shard
  /// Per-shard artifact identity (digest + live generation), in key order.
  std::vector<ShardArtifact> artifacts;
  std::size_t num_engines = 0;
};

/// The routing surface the serving front ends consume — what the gateway
/// listener and the cluster node agent actually need from a fleet: admit
/// work, manage sticky sessions, answer capacity/identity questions. Router
/// is the local implementation; the cluster's NodeAgent wraps a Router and
/// implements the same surface with cross-node bulk spill behind it, so a
/// gateway serves a multi-node fleet without knowing it. Whatever settles a
/// future that submit() or track() returned must call options.notify after
/// it: the gateway's handler threads wake on nothing else.
class Routing {
 public:
  virtual ~Routing() = default;

  virtual engine::Submission submit(std::string_view shard_key,
                                    const serve::RssiVector& rssi,
                                    const engine::SubmitOptions& options = {}) = 0;
  virtual std::optional<FleetSession> open_session(std::string_view shard_key,
                                                   const geo::Point2& start) = 0;
  virtual engine::Submission track(const FleetSession& session, serve::ImuSegment segment,
                                   const engine::SubmitOptions& options = {}) = 0;
  virtual bool close_session(const FleetSession& session) = 0;
  virtual bool has_shard(std::string_view shard_key) const = 0;
  virtual FleetStats stats() const = 0;
  virtual std::vector<ShardDepths> queue_depths() const = 0;

  /// Implementation-specific extra scrape samples (e.g. a node agent's
  /// spill counters), spliced into the gateway's snapshot. Default: none.
  virtual void splice_metrics(obs::MetricsSnapshot& out) const { (void)out; }
};

class Router : public Routing {
 public:
  Router() = default;
  ~Router() override { shutdown(); }

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Registers a shard serving `wifi` (every engine replicates it). False
  /// when the key is empty or already registered.
  bool add_shard(const ShardConfig& config, const serve::WifiLocalizer& wifi);
  /// As above, with streaming IMU sessions enabled on every engine.
  bool add_shard(const ShardConfig& config, const serve::WifiLocalizer& wifi,
                 const serve::ImuLocalizer& imu);

  /// Routes one scan to `shard_key`: primary engine by fingerprint hash;
  /// on kQueueFull interactive submissions fall through the remaining
  /// engines in consistent probe order while bulk submissions spill to the
  /// shallowest queue first (fleet-wide load shedding). kNoShard when the
  /// key is unknown. A submission racing a hot_swap retries once onto the
  /// replacement generation. The scan is copied only by the engine that
  /// admits it, never per probe; class and deadline options are forwarded
  /// to every probed engine unchanged.
  engine::Submission submit(std::string_view shard_key, const serve::RssiVector& rssi,
                            const engine::SubmitOptions& options = {}) override;

  /// Opens a streaming IMU session on `shard_key` (engines are rotated
  /// round-robin). nullopt when the shard is unknown or has no IMU model;
  /// an open racing a hot_swap retries once onto the replacement
  /// generation, like submit().
  std::optional<FleetSession> open_session(std::string_view shard_key,
                                           const geo::Point2& start) override;

  /// Queues one IMU segment for a session. kNoSession when the session's
  /// shard generation has been swapped out (sessions do not survive a
  /// model update) or the shard is gone. Admission options apply per
  /// update, exactly as in Engine::track.
  engine::Submission track(const FleetSession& session, serve::ImuSegment segment,
                           const engine::SubmitOptions& options = {}) override;

  /// Unregisters a session; false for unknown/expired handles.
  bool close_session(const FleetSession& session) override;

  /// Replaces `shard_key`'s engines with fresh ones serving `wifi` (same
  /// ShardConfig, new generation). Already-accepted futures on the old
  /// generation drain and resolve against the old model; new admissions are
  /// served by the new one. False for unknown keys.
  bool hot_swap(std::string_view shard_key, const serve::WifiLocalizer& wifi);
  bool hot_swap(std::string_view shard_key, const serve::WifiLocalizer& wifi,
                const serve::ImuLocalizer& imu);

  /// Merged per-shard and fleet-total telemetry.
  FleetStats stats() const override;

  /// Snapshot of every engine's instantaneous queue depth, grouped by shard
  /// (keys in registry order). One queue lock per engine, no histogram
  /// copies — the load signal the gateway Stats frame and the open-loop
  /// harness report. Depths of different engines are read at slightly
  /// different instants; it is a gauge, not a consistent cut.
  std::vector<ShardDepths> queue_depths() const override;

  /// Cheap per-shard artifact identity (one registry read, no engine
  /// locks): the digest + generation each heartbeat frame carries.
  std::vector<ShardArtifact> shard_artifacts() const;

  /// Unmerged per-engine snapshots of one shard (tests, debugging; empty
  /// for unknown keys).
  std::vector<engine::EngineStats> shard_engine_stats(std::string_view shard_key) const;

  bool has_shard(std::string_view shard_key) const override;
  std::size_t num_shards() const;

  /// Drains and stops every engine of every shard. Idempotent; the
  /// destructor calls it.
  void shutdown();

 private:
  struct Shard {
    ShardConfig config;
    std::uint64_t generation = 0;
    std::vector<std::unique_ptr<engine::Engine>> engines;
    std::atomic<std::size_t> next_session_engine{0};
  };

  std::shared_ptr<Shard> find_shard(std::string_view key) const;
  std::shared_ptr<Shard> build_shard(const ShardConfig& config,
                                     const serve::WifiLocalizer& wifi,
                                     const serve::ImuLocalizer* imu);
  bool swap_impl(std::string_view key, const serve::WifiLocalizer& wifi,
                 const serve::ImuLocalizer* imu);

  mutable std::shared_mutex mu_;  ///< guards the shard registry map only
  std::map<std::string, std::shared_ptr<Shard>, std::less<>> shards_;
  std::atomic<std::uint64_t> next_generation_{1};
};

}  // namespace noble::fleet

#endif  // NOBLE_FLEET_ROUTER_H_
