// noble::gateway — the socket-facing serving front end over fleet::Routing.
//
// The engine/fleet stack serves heavy concurrent traffic, but only
// in-process; this is the network story (the role onnxruntime's
// hosting/http/session.cc plays for ORT). The transport — accept loop,
// N poll-based connection-handler threads, buffered framing, defensive
// decode — is the shared net::FrameServer; the Listener is its gateway
// protocol handler:
//
//   clients ══ TCP, wire.h frames ══▶ net::FrameServer ──▶ Listener
//                                                             │
//                                               routing.submit / track / stats
//
// Per connection the Listener keeps a bounded in-flight window of
// admitted-but-unfulfilled requests plus the sticky-session table. The
// frame header's class + deadline map straight onto engine::SubmitOptions,
// so the admission-control story — interactive reservation, bulk shedding,
// deadline expiry — holds for network traffic exactly as it does
// in-process. Responses carry the request id and go out in completion
// order: micro-batching reorders completions, the wire does not hide it.
//
// Long-lived connections stream IMU session updates: OpenSession binds a
// wire session id to a sticky FleetSession on this connection; TrackUpdates
// ride the same per-session FIFO ordering the engine already guarantees
// (the handler submits updates of one session in arrival order). A closing
// connection closes its sessions — no leaked registry entries.
//
// Protocol errors answer with one kError frame and close the connection
// (framing-level violations are handled by the FrameServer itself;
// body-level ones — a frame whose type is known but whose body does not
// parse — by the Listener, same contract). In-flight futures still resolve
// (the engine owns them) and are simply dropped. The bit-identity contract
// is end to end: a fix served over the wire is Fix::operator==-equal to
// direct locate() — the wire codec moves exact bit patterns, never
// re-derived values.
//
// The Listener serves any fleet::Routing — a local Router, or a cluster
// NodeAgent whose submit() spills saturated bulk traffic to peer nodes; the
// gateway cannot tell the difference, which is the point of the interface.
//
// Observability: per-request frames (kLocate / kTrackUpdate) carry an
// obs::Trace when tracing is on — kRecv stamped at byte arrival, kSubmit at
// decode, engine marks inside, kResponded when the response enters the
// write buffer — and the gateway finishes each trace into the process-wide
// stage histograms. The scrape page is built as an obs::MetricsSnapshot
// (gateway counters + FleetStats views + per-engine depth gauges + the
// routing implementation's own splice + the global registry's trace
// instruments) and served in either exposition format: kStats returns the
// Prometheus text rendering, kStatsBinary the versioned binary image —
// full histogram bins, decodable with obs::decode_snapshot.
#ifndef NOBLE_GATEWAY_GATEWAY_H_
#define NOBLE_GATEWAY_GATEWAY_H_

#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <unordered_map>

#include "fleet/router.h"
#include "gateway/wire.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace noble::gateway {

struct GatewayConfig {
  /// The listener's FrameServer: port (0 = ephemeral, Listener::port()
  /// reports the actual one), loopback bind, handler threads, connection,
  /// frame-size and write-buffer limits.
  net::ServerConfig server;
  /// Most admitted-but-unfulfilled requests one connection may hold; the
  /// gateway answers kWindowFull beyond it without touching the router —
  /// per-connection backpressure in front of the fleet's own admission.
  std::size_t inflight_window = 64;
};

/// Monotonic gateway-level counters (the fleet's own telemetry lives in
/// FleetStats; these count what only the socket layer can see).
struct GatewayCounters {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_open = 0;  ///< gauge
  std::uint64_t connections_rejected = 0;  ///< over max_connections
  std::uint64_t frames_received = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t malformed_frames = 0;  ///< framing-level + body-level
  std::uint64_t backpressure_rejects = 0;  ///< kWindowFull verdicts
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_closed = 0;  ///< client closes + connection sweeps
};

class Listener final : private net::FrameHandler {
 public:
  /// The routing implementation must outlive the listener. Construction
  /// does not touch the network; start() does.
  Listener(fleet::Routing& routing, GatewayConfig config = {});
  ~Listener() override;

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds, listens and spawns the accept + handler threads. False (with
  /// the OS error in errno) when the socket cannot be bound.
  bool start();

  /// Stops accepting, wakes every handler, closes every connection (their
  /// sticky sessions are closed on the router) and joins. Idempotent; the
  /// destructor calls it.
  void stop();

  bool running() const { return server_.running(); }
  /// Actual bound port (resolves port 0 after start()).
  std::uint16_t port() const { return server_.port(); }
  const GatewayConfig& config() const { return config_; }

  GatewayCounters counters() const;

  /// The scrape snapshot: gateway counters, FleetStats totals and per-class
  /// percentiles, per-shard/per-engine queue depths and artifact identity
  /// (all as view samples), the routing implementation's own splice, plus
  /// every instrument in obs::Registry::global() (the tracer's stage
  /// histograms and trace counters). Both wire scrape formats and
  /// stats_text() render this one snapshot.
  obs::MetricsSnapshot stats_snapshot() const;

  /// Prometheus text rendering of stats_snapshot() — the scrape page,
  /// served over the wire as the kStats response.
  std::string stats_text() const;

 private:
  struct Pending {
    std::uint64_t request_id = 0;
    engine::RequestClass cls = engine::RequestClass::kInteractive;
    std::future<serve::Fix> result;
    std::shared_ptr<obs::Trace> trace;  ///< stage clock; nullptr = untraced
  };

  /// Gateway protocol state of one connection, carried in ServerConn::user.
  struct ConnState {
    std::deque<Pending> inflight;
    /// Wire session id -> sticky fleet session (per-connection namespace).
    std::unordered_map<std::uint64_t, fleet::FleetSession> sessions;
    std::uint64_t next_session_id = 1;
  };

  // net::FrameHandler:
  const net::MessageSet& message_set() const override { return wire::message_set(); }
  bool on_frame(net::ServerConn& conn, net::Frame frame, std::uint64_t recv_ns) override;
  bool on_service(net::ServerConn& conn) override;
  void on_close(net::ServerConn& conn) override;
  bool stamp_arrivals() const override { return obs::Tracer::global().enabled(); }

  ConnState& state_of(net::ServerConn& conn);
  /// Moves fulfilled futures from the in-flight window into the write
  /// buffer; returns how many are still pending.
  std::size_t settle_inflight(net::ServerConn& conn, ConnState& state);
  void send_frame(net::ServerConn& conn, wire::MsgType type, std::uint64_t request_id,
                  std::string body);

  fleet::Routing& routing_;
  GatewayConfig config_;
  net::FrameServer server_;

  /// Gateway-protocol counters; the transport-level ones live in the
  /// FrameServer and are merged into GatewayCounters by counters().
  obs::Counter body_malformed_frames_;
  obs::Counter backpressure_rejects_;
  obs::Counter sessions_opened_;
  obs::Counter sessions_closed_;
};

}  // namespace noble::gateway

#endif  // NOBLE_GATEWAY_GATEWAY_H_
