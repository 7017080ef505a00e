// Shared support for the benchmark binaries: the paper-shaped experiment
// configurations every table/figure bench uses, and small printing helpers.
//
// All benches honor NOBLE_SCALE (sample-count multiplier), NOBLE_EPOCHS,
// NOBLE_TAU and NOBLE_MANIFOLD_DIM so the suite can be shrunk for smoke runs
// or grown toward paper scale on faster hardware, plus NOBLE_KERNEL
// (scalar|avx2|auto) to pin the compute-kernel ISA; the dispatched ISA is
// printed in every bench banner.
#ifndef NOBLE_BENCH_SUPPORT_BENCH_UTIL_H_
#define NOBLE_BENCH_SUPPORT_BENCH_UTIL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "core/baselines.h"
#include "core/evaluate.h"
#include "core/experiment.h"
#include "core/noble_imu.h"
#include "core/noble_wifi.h"
#include "engine/engine.h"
#include "fleet/router.h"
#include "gateway/gateway.h"
#include "gateway/wire.h"
#include "net/channel.h"

namespace noble::bench {

/// UJI-like experiment sizing used by Tables I, II and Fig. 4.
core::WifiExperimentConfig uji_config();

/// IPIN-like experiment sizing (§IV-B text).
core::WifiExperimentConfig ipin_config();

/// IMU experiment sizing used by Table III and Fig. 5.
core::ImuExperimentConfig imu_config();

/// NObLe Wi-Fi hyperparameters matched to the synthetic substrate.
core::NobleWifiConfig noble_wifi_config();

/// Baseline regression hyperparameters (same budget as NObLe, §IV-B).
core::RegressionConfig regression_config();

/// NObLe IMU hyperparameters.
core::NobleImuConfig noble_imu_config();

/// Engine knobs shared by the admission and gateway benches, applied over
/// `defaults` (every field falls back to the passed default):
/// NOBLE_ENGINE_WORKERS, NOBLE_ENGINE_MAX_BATCH, NOBLE_ENGINE_MAX_WAIT_US,
/// NOBLE_ENGINE_QUEUE_CAP,
/// NOBLE_ENGINE_BACKEND (dense|quantized: fp32 or int8 plan precision),
/// NOBLE_ENGINE_CLASS_CAPS
/// ("interactive:bulk" queue-slot caps, 0 = uncapped, e.g. "0:256"),
/// NOBLE_ENGINE_DEADLINE_US (engine-wide default deadline budget, 0 = off).
/// Also applies the process-wide NOBLE_KERNEL override (scalar|avx2|auto).
/// `defaults.workers == 0` means auto: size the pool to min(hardware, 8),
/// at least 2 — what the throughput benches want on any host.
engine::EngineConfig engine_config_from_env(engine::EngineConfig defaults = {});

/// One-line engine-config summary for bench banners.
std::string describe_engine_config(const engine::EngineConfig& cfg);

/// Gateway knobs applied over `defaults`: NOBLE_GATEWAY_PORT (0 =
/// ephemeral) and NOBLE_GATEWAY_THREADS (connection-handler threads) — the
/// two that change what a CI log must record to reproduce a smoke run.
gateway::GatewayConfig gateway_config_from_env(gateway::GatewayConfig defaults = {});

/// One-line gateway-config summary for bench banners.
std::string describe_gateway_config(const gateway::GatewayConfig& cfg);

// --- load targets ------------------------------------------------------------

/// Rejection that reached the client over the wire — now defined next to
/// the status table in wire.h (every client reader shares it); the old name
/// stays for the benches.
using WireRejected = gateway::wire::WireRejected;

/// What the load generators drive: the in-process fleet Router or a live
/// gateway socket, behind one submit/track surface. Futures resolve with a
/// Fix, or fail with engine::DeadlineExpired / WireRejected — exactly the
/// split the per-class reports count. Session handles are target-scoped
/// opaque ids (a sticky FleetSession in-process, a wire session id over a
/// socket).
class LoadTarget {
 public:
  virtual ~LoadTarget() = default;
  virtual engine::Submission submit(const std::string& shard_key,
                                    const serve::RssiVector& rssi,
                                    const engine::SubmitOptions& options) = 0;
  virtual std::optional<std::uint64_t> open_session(const std::string& shard_key,
                                                    const geo::Point2& start) = 0;
  virtual engine::Submission track(std::uint64_t session, serve::ImuSegment segment,
                                   const engine::SubmitOptions& options) = 0;
  virtual bool close_session(std::uint64_t session) = 0;
  virtual std::string name() const = 0;
  /// True when the harness should start an obs::Trace and attach it to
  /// SubmitOptions (in-process targets only — over the wire the gateway
  /// starts the trace itself at frame decode, and a client-side trace could
  /// not cross the socket anyway).
  virtual bool propagates_trace() const { return false; }
};

/// In-process target: forwards straight to a fleet::Routing implementation
/// — a local Router (the zero-overhead baseline the wire numbers are
/// compared against) or a cluster NodeAgent (mixed load with cross-node
/// spill behind it).
class RouterTarget final : public LoadTarget {
 public:
  explicit RouterTarget(fleet::Routing& router) : router_(router) {}
  engine::Submission submit(const std::string& shard_key, const serve::RssiVector& rssi,
                            const engine::SubmitOptions& options) override;
  std::optional<std::uint64_t> open_session(const std::string& shard_key,
                                            const geo::Point2& start) override;
  engine::Submission track(std::uint64_t session, serve::ImuSegment segment,
                           const engine::SubmitOptions& options) override;
  bool close_session(std::uint64_t session) override;
  std::string name() const override { return "router"; }
  bool propagates_trace() const override { return true; }

 private:
  fleet::Routing& router_;
  std::mutex mu_;  ///< guards the session handle map
  std::unordered_map<std::uint64_t, fleet::FleetSession> sessions_;
  std::uint64_t next_session_ = 1;
};

/// Live-socket target: N gateway connections, each a net::Channel, requests
/// fanned round-robin; each channel's reader fulfills promises as response
/// frames arrive. submit() is optimistic (kAccepted once the frame is on the
/// wire); server-side rejections come back through the future as
/// WireRejected, deadline lapses as engine::DeadlineExpired. One session's
/// updates always ride one connection, preserving the engine's per-session
/// FIFO contract end to end.
class SocketTarget final : public LoadTarget {
 public:
  /// Connects `connections` sockets to a running gateway; nullptr when any
  /// connect fails.
  static std::unique_ptr<SocketTarget> connect(const std::string& host,
                                               std::uint16_t port,
                                               std::size_t connections = 2);
  ~SocketTarget() override;

  engine::Submission submit(const std::string& shard_key, const serve::RssiVector& rssi,
                            const engine::SubmitOptions& options) override;
  std::optional<std::uint64_t> open_session(const std::string& shard_key,
                                            const geo::Point2& start) override;
  engine::Submission track(std::uint64_t session, serve::ImuSegment segment,
                           const engine::SubmitOptions& options) override;
  bool close_session(std::uint64_t session) override;
  std::string name() const override { return "wire"; }

 private:
  SocketTarget() = default;
  std::size_t pick_conn();
  /// Sends a kLocate/kTrackUpdate frame on connection `conn`; the future
  /// settles from its kFix reply.
  engine::Submission call_fix(std::size_t conn, net::Frame frame,
                              const engine::SubmitOptions& options);
  /// Sends `frame` on connection `conn` and blocks for its reply; nullopt
  /// when the connection is gone.
  std::optional<net::Frame> round_trip(std::size_t conn, net::Frame frame);

  struct SessionRef {
    std::size_t conn = 0;         ///< the connection the session is sticky to
    std::uint64_t wire_id = 0;    ///< the server's id on that connection
  };

  std::vector<std::unique_ptr<net::Channel>> conns_;
  std::atomic<std::uint64_t> next_conn_{0};
  std::mutex session_mu_;  ///< guards the session handle map
  std::unordered_map<std::uint64_t, SessionRef> sessions_;
  std::uint64_t next_session_key_ = 1;
};

/// Mixed interactive + bulk closed-loop load against a LoadTarget (the
/// in-process Router or a live gateway socket) — the workload generator
/// bench_admission_classes drives.
///
/// Interactive clients are paced (think time between fixes) and wait for
/// each fix (submit, await, think); bulk clients flood with a bounded
/// in-flight window and never retry — a shed (kQueueFull) or expiry is
/// counted, not resubmitted.
/// Scans spread across `shard_keys` round-robin and across the query pool
/// per client.
struct MixedLoadConfig {
  std::size_t interactive_clients = 2;
  std::size_t interactive_requests = 1000;  ///< per client
  std::uint64_t interactive_pace_us = 200;  ///< think time between fixes
  std::size_t bulk_clients = 2;
  std::size_t bulk_requests = 2000;    ///< per client (a floor when sustaining)
  std::uint64_t bulk_deadline_us = 0;  ///< per-submission budget; 0 = none
  std::size_t bulk_inflight_window = 32;
  /// Keep the bulk flood running until every interactive client finishes
  /// (bulk_requests becomes a floor) — what an overload bench needs: the
  /// interactive stream must be measured *under* the flood, not after it.
  bool bulk_sustain = false;
  /// false = no-priority baseline: the bulk stream submits with default
  /// options (interactive class, no deadline), so both streams share one
  /// undifferentiated queue. Interactive submits default-class either way.
  bool classed = true;
};

/// Per-class outcome counters + client-side latency of one mixed-load run.
struct ClassLoadReport {
  std::uint64_t attempted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;   ///< kQueueFull (and any routing verdict)
  std::uint64_t expired = 0;    ///< kExpired at submit + DeadlineExpired futures
  std::uint64_t completed = 0;  ///< futures that resolved with a fix
  Histogram latency_us = Histogram::latency_us();  ///< submit -> fix, client side
};

struct MixedLoadReport {
  ClassLoadReport interactive;
  ClassLoadReport bulk;
  double wall_seconds = 0.0;
  double qps = 0.0;  ///< completed fixes per second, both classes
};

MixedLoadReport run_mixed_load(LoadTarget& target,
                               const std::vector<std::string>& shard_keys,
                               const std::vector<serve::RssiVector>& queries,
                               const MixedLoadConfig& cfg);

/// Router convenience overload (the pre-gateway call shape).
inline MixedLoadReport run_mixed_load(fleet::Router& router,
                                      const std::vector<std::string>& shard_keys,
                                      const std::vector<serve::RssiVector>& queries,
                                      const MixedLoadConfig& cfg) {
  RouterTarget target(router);
  return run_mixed_load(static_cast<LoadTarget&>(target), shard_keys, queries, cfg);
}

// --- open-loop load ----------------------------------------------------------

/// Open-loop (Poisson-arrival) generator: requests fire on an exponential
/// inter-arrival schedule at `offered_qps` whether or not earlier ones have
/// finished — the generator a saturation measurement needs. (The closed-loop
/// MixedLoadConfig clients self-throttle: they can never offer more load
/// than the target absorbs, so they cannot find the knee.) Traffic mixes
/// interactive scans, bulk scans (deadline-carrying) and streaming IMU
/// session updates over a pool of sticky sessions.
struct OpenLoopConfig {
  double offered_qps = 500.0;
  double seconds = 2.0;
  /// Fraction of arrivals submitted as bulk scans (with bulk_deadline_us).
  double bulk_fraction = 0.2;
  /// Fraction of arrivals that are IMU session updates (interactive class);
  /// ignored when the target has no sessions to offer.
  double session_fraction = 0.2;
  std::size_t sessions = 8;  ///< sticky tracks kept open for session traffic
  std::uint64_t bulk_deadline_us = 50000;
  std::uint64_t seed = 7;
  std::size_t settlers = 4;  ///< threads resolving in-flight futures
  /// In-flight futures beyond this are not submitted (counted as
  /// `dropped`): the generator's own memory guard far past the knee.
  std::size_t max_outstanding = 8192;
};

struct OpenLoopReport {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;   ///< completed fixes / wall
  double wall_seconds = 0.0;
  std::uint64_t arrivals = 0;  ///< scheduled arrivals (incl. dropped)
  std::uint64_t dropped = 0;   ///< skipped by the max_outstanding guard
  /// Worst dispatcher lateness vs the Poisson schedule: large values mean
  /// the *generator* saturated (submission path blocked), not the target.
  double max_send_lag_us = 0.0;
  ClassLoadReport interactive;  ///< interactive scans
  ClassLoadReport bulk;         ///< bulk scans
  ClassLoadReport session;      ///< IMU session updates
};

/// Drives `target` open-loop. `segments` feeds session updates and
/// `session_starts` anchors the session pool (session traffic is disabled
/// when either is empty or the target refuses opens — no IMU model).
OpenLoopReport run_open_loop(LoadTarget& target,
                             const std::vector<std::string>& shard_keys,
                             const std::vector<serve::RssiVector>& queries,
                             const std::vector<serve::ImuSegment>& segments,
                             const std::vector<geo::Point2>& session_starts,
                             const OpenLoopConfig& cfg);

/// Open-loop sweep knobs: NOBLE_LOAD_QPS (first offered-QPS step) and
/// NOBLE_LOAD_SECONDS (measurement window per step), printed by
/// describe_open_loop_config so a CI log reproduces the run.
OpenLoopConfig open_loop_config_from_env(OpenLoopConfig defaults = {});

/// One-line open-loop summary for bench banners.
std::string describe_open_loop_config(const OpenLoopConfig& cfg);

/// Prints one offered-vs-measured open-loop row (all three classes).
void print_open_loop_row(const OpenLoopReport& report);

/// Prints one ClassLoadReport as a bench row (counters + percentiles).
void print_class_load_row(const std::string& label, const ClassLoadReport& report);

/// Prints the run banner: experiment sizes, seed, scale.
void print_banner(const std::string& bench_name, const std::string& paper_ref);

/// Prints one WifiReport as paper-style rows.
void print_wifi_report(const std::string& model, const core::WifiReport& report);

/// Prints one PositionReport row (mean/median/structure).
void print_position_row(const std::string& model, const core::PositionReport& report,
                        const std::string& paper_mean, const std::string& paper_median);

/// Latency histogram with the shared serving layout (1 us .. 10 s,
/// log-spaced) — record once per request, print with print_latency_row.
/// Same layout as the engine's EngineStats latencies, so bench-side and
/// engine-side histograms can be merge()d.
noble::Histogram latency_histogram();

/// Prints one latency row (p50/p95/p99 per query) from a histogram.
void print_latency_row(const std::string& mode, std::size_t batch,
                       const noble::Histogram& latencies_us);

/// Output path for figure CSV artifacts (honors NOBLE_BENCH_OUT, default ".").
std::string artifact_path(const std::string& filename);

}  // namespace noble::bench

#endif  // NOBLE_BENCH_SUPPORT_BENCH_UTIL_H_
