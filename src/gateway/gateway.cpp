#include "gateway/gateway.h"

#include <chrono>
#include <cstdio>
#include <utility>

namespace noble::gateway {

Listener::Listener(fleet::Routing& routing, GatewayConfig config)
    : routing_(routing),
      config_(std::move(config)),
      server_(*this, config_.server) {}

// The server must stop before the Listener's protocol state goes away:
// handler threads call back into on_service/on_close until joined.
Listener::~Listener() { server_.stop(); }

bool Listener::start() { return server_.start(); }

void Listener::stop() { server_.stop(); }

Listener::ConnState& Listener::state_of(net::ServerConn& conn) {
  if (conn.user == nullptr) conn.user = std::make_shared<ConnState>();
  return *static_cast<ConnState*>(conn.user.get());
}

void Listener::send_frame(net::ServerConn& conn, wire::MsgType type,
                          std::uint64_t request_id, std::string body) {
  net::Frame frame;
  frame.type = type;
  frame.request_id = request_id;
  frame.body = std::move(body);
  conn.send(frame);
}

bool Listener::on_frame(net::ServerConn& conn, net::Frame frame,
                        std::uint64_t recv_ns) {
  ConnState& state = state_of(conn);
  const auto malformed = [&](const char* what) {
    // Body-level protocol violation: same one-error-frame-then-close
    // contract the FrameServer applies to framing-level ones.
    body_malformed_frames_.inc();
    conn.fail(frame.request_id, what);
    return true;
  };
  // Stage trace for a decoded request frame: decode = kRecv -> kSubmit, the
  // engine stamps the middle, settle_inflight stamps kResponded and
  // finishes. nullptr when tracing is off.
  const auto start_trace = [&] {
    std::shared_ptr<obs::Trace> trace = obs::Tracer::global().start(frame.request_id);
    if (trace != nullptr) {
      trace->external_respond = true;  // the gateway writes the response
      if (recv_ns != 0) trace->stamp(obs::Mark::kRecv, recv_ns);
      trace->stamp(obs::Mark::kSubmit);
    }
    return trace;
  };

  switch (frame.type.as<wire::MsgType>()) {
    case wire::MsgType::kLocate: {
      std::string shard_key;
      serve::RssiVector rssi;
      if (!wire::decode_locate_body(frame.body, shard_key, rssi)) {
        return malformed("bad locate body");
      }
      if (state.inflight.size() >= config_.inflight_window) {
        backpressure_rejects_.inc();
        send_frame(conn, wire::MsgType::kFix, frame.request_id,
                   wire::encode_fix_body(wire::Status::kWindowFull, nullptr));
        return true;
      }
      engine::SubmitOptions options = wire::to_submit_options(frame);
      options.trace = start_trace();
      options.notify = conn.notifier();
      engine::Submission s = routing_.submit(shard_key, rssi, options);
      if (s.accepted()) {
        state.inflight.push_back(Pending{frame.request_id, std::move(s.result),
                                         std::move(options.trace)});
      } else {
        // Rejected: the trace is dropped unfinished — stage histograms
        // describe served requests.
        send_frame(conn, wire::MsgType::kFix, frame.request_id,
                   wire::encode_fix_body(wire::from_submit_status(s.status), nullptr));
      }
      return true;
    }
    case wire::MsgType::kTrackUpdate: {
      std::uint64_t session_id = 0;
      serve::ImuSegment segment;
      if (!wire::decode_track_body(frame.body, session_id, segment)) {
        return malformed("bad track body");
      }
      const auto it = state.sessions.find(session_id);
      if (it == state.sessions.end()) {
        send_frame(conn, wire::MsgType::kFix, frame.request_id,
                   wire::encode_fix_body(wire::Status::kNoSession, nullptr));
        return true;
      }
      if (state.inflight.size() >= config_.inflight_window) {
        backpressure_rejects_.inc();
        send_frame(conn, wire::MsgType::kFix, frame.request_id,
                   wire::encode_fix_body(wire::Status::kWindowFull, nullptr));
        return true;
      }
      engine::SubmitOptions options = wire::to_submit_options(frame);
      options.trace = start_trace();
      options.notify = conn.notifier();
      engine::Submission s = routing_.track(it->second, std::move(segment), options);
      if (s.accepted()) {
        state.inflight.push_back(Pending{frame.request_id, std::move(s.result),
                                         std::move(options.trace)});
      } else {
        send_frame(conn, wire::MsgType::kFix, frame.request_id,
                   wire::encode_fix_body(wire::from_submit_status(s.status), nullptr));
      }
      return true;
    }
    case wire::MsgType::kOpenSession: {
      std::string shard_key;
      geo::Point2 start;
      if (!wire::decode_open_session_body(frame.body, shard_key, start)) {
        return malformed("bad open-session body");
      }
      std::optional<fleet::FleetSession> session = routing_.open_session(shard_key, start);
      if (!session.has_value()) {
        const wire::Status status = routing_.has_shard(shard_key)
                                        ? wire::Status::kNoSession
                                        : wire::Status::kNoShard;
        send_frame(conn, wire::MsgType::kSessionOpened, frame.request_id,
                   wire::encode_session_opened_body(status, 0));
        return true;
      }
      const std::uint64_t wire_id = state.next_session_id++;
      state.sessions.emplace(wire_id, *session);
      sessions_opened_.inc();
      send_frame(conn, wire::MsgType::kSessionOpened, frame.request_id,
                 wire::encode_session_opened_body(wire::Status::kOk, wire_id));
      return true;
    }
    case wire::MsgType::kCloseSession: {
      std::uint64_t session_id = 0;
      if (!wire::decode_close_session_body(frame.body, session_id)) {
        return malformed("bad close-session body");
      }
      const auto it = state.sessions.find(session_id);
      wire::Status status = wire::Status::kNoSession;
      if (it != state.sessions.end()) {
        routing_.close_session(it->second);
        state.sessions.erase(it);
        sessions_closed_.inc();
        status = wire::Status::kOk;
      }
      send_frame(conn, wire::MsgType::kSessionClosed, frame.request_id,
                 wire::encode_status_body(status));
      return true;
    }
    case wire::MsgType::kStats:
      send_frame(conn, wire::MsgType::kStatsText, frame.request_id,
                 net::encode_text_body(stats_text()));
      return true;
    case wire::MsgType::kStatsBinary:
      // Same snapshot, binary exposition: full histogram bins ride the
      // text-body framing (u64 length + raw bytes carries arbitrary bytes).
      send_frame(conn, wire::MsgType::kStatsSnapshot, frame.request_id,
                 net::encode_text_body(obs::encode_snapshot(stats_snapshot())));
      return true;
    case wire::MsgType::kFix:
    case wire::MsgType::kSessionOpened:
    case wire::MsgType::kSessionClosed:
    case wire::MsgType::kStatsText:
    case wire::MsgType::kError:
    case wire::MsgType::kStatsSnapshot:
      return malformed("response type from client");
  }
  return malformed("unknown message type");
}

bool Listener::on_service(net::ServerConn& conn) {
  // Runs when a socket is ready or a settled future's notifier (set on
  // every locate and track) woke this thread.
  if (conn.user == nullptr) return false;
  ConnState& state = *static_cast<ConnState*>(conn.user.get());
  return settle_inflight(conn, state) > 0;
}

std::size_t Listener::settle_inflight(net::ServerConn& conn, ConnState& state) {
  // Completion order, not submission order: a faster micro-batch may
  // finish request N+1 before N, and holding its response hostage behind N
  // would serialize the window. Request ids disambiguate.
  for (auto it = state.inflight.begin(); it != state.inflight.end();) {
    if (it->result.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      ++it;
      continue;
    }
    send_frame(conn, wire::MsgType::kFix, it->request_id,
               wire::encode_ready_fix_body(it->result));
    if (it->trace != nullptr) {
      // The respond stage ends when the response enters the write buffer:
      // the poll loop owns the actual socket flush, and per-frame kernel
      // write timing would need outbuf bookkeeping tracing does not pay
      // for. (A failed request still finishes here — its unreached stage
      // marks are simply absent from the stage histograms.)
      it->trace->stamp(obs::Mark::kResponded);
      obs::Tracer::global().finish(*it->trace);
    }
    it = state.inflight.erase(it);
  }
  return state.inflight.size();
}

void Listener::on_close(net::ServerConn& conn) {
  if (conn.user == nullptr) return;
  ConnState& state = *static_cast<ConnState*>(conn.user.get());
  // A vanished connection must not leak its tracks: sticky sessions die
  // with the connection, exactly like a device dropping off the network.
  for (const auto& [wire_id, session] : state.sessions) {
    routing_.close_session(session);
    sessions_closed_.inc();
  }
  state.sessions.clear();
}

GatewayCounters Listener::counters() const {
  const net::ServerCounters server = server_.counters();
  GatewayCounters out;
  out.connections_accepted = server.connections_accepted;
  out.connections_open = server.connections_open;
  out.connections_rejected = server.connections_rejected;
  out.frames_received = server.frames_received;
  out.frames_sent = server.frames_sent;
  out.malformed_frames = server.malformed_frames + body_malformed_frames_.value();
  out.backpressure_rejects = backpressure_rejects_.value();
  out.sessions_opened = sessions_opened_.value();
  out.sessions_closed = sessions_closed_.value();
  return out;
}

obs::MetricsSnapshot Listener::stats_snapshot() const {
  obs::MetricsSnapshot out;
  // Gateway and fleet samples are spliced from this listener's own counters
  // and router — NOT from global named instruments: many listeners/engines
  // coexist in one process (every gateway test stands one up), and a global
  // "noble_fleet_submitted" would smear them together. The global registry
  // contributes only genuinely process-wide instruments (trace stage
  // histograms, trace counters) at the end.
  const GatewayCounters c = counters();
  out.counter("noble_gateway_connections_accepted", c.connections_accepted);
  out.counter("noble_gateway_connections_open", c.connections_open);
  out.counter("noble_gateway_connections_rejected", c.connections_rejected);
  out.counter("noble_gateway_frames_received", c.frames_received);
  out.counter("noble_gateway_frames_sent", c.frames_sent);
  out.counter("noble_gateway_malformed_frames", c.malformed_frames);
  out.counter("noble_gateway_backpressure_rejects", c.backpressure_rejects);
  out.counter("noble_gateway_sessions_opened", c.sessions_opened);
  out.counter("noble_gateway_sessions_closed", c.sessions_closed);

  const fleet::FleetStats stats = routing_.stats();
  out.counter("noble_fleet_shards", stats.shards.size());
  out.counter("noble_fleet_engines", stats.num_engines);
  out.gauge_int("noble_fleet_queue_depth", stats.total.queue_depth);
  out.counter("noble_fleet_submitted", stats.total.submitted);
  out.counter("noble_fleet_completed", stats.total.completed);
  out.counter("noble_fleet_rejected", stats.total.rejected);
  out.counter("noble_fleet_expired", stats.total.expired);
  out.counter("noble_fleet_closed", stats.total.closed);
  out.counter("noble_fleet_batches", stats.total.batches);
  out.counter("noble_fleet_imu_batches", stats.total.imu_batches);
  // Scheduler instruments: coalescing widths plus the measured per-request
  // queue wait and per-batch assembly time — fleet-merged, full bins in the
  // binary exposition.
  out.histogram("noble_fleet_imu_batch_size", stats.total.imu_batch_size);
  out.histogram("noble_fleet_queue_wait_us", stats.total.queue_wait_us);
  out.histogram("noble_fleet_assembly_us", stats.total.assembly_us);
  for (const engine::RequestClass cls :
       {engine::RequestClass::kInteractive, engine::RequestClass::kBulk}) {
    const engine::ClassStats& cs = stats.total.for_class(cls);
    const std::string prefix = std::string("noble_fleet_") +
                               engine::request_class_name(cls);
    out.counter(prefix + "_accepted", cs.accepted);
    out.counter(prefix + "_rejected", cs.rejected);
    out.counter(prefix + "_expired", cs.expired);
    out.counter(prefix + "_closed", cs.closed);
    // Per-class lane depth as a labeled split of noble_fleet_queue_depth,
    // matching the per-engine {shard,engine} split below.
    out.gauge_int("noble_fleet_queue_depth", cs.queue_depth,
                  {{"class", engine::request_class_name(cls)}});
    const LatencySummary latency = summarize_latency_us(cs.latency_us);
    out.gauge(prefix + "_p50_us", latency.p50_us);
    out.gauge(prefix + "_p95_us", latency.p95_us);
    out.gauge(prefix + "_p99_us", latency.p99_us);
  }
  for (const fleet::ShardDepths& shard : routing_.queue_depths()) {
    for (std::size_t e = 0; e < shard.engines.size(); ++e) {
      out.gauge_int("noble_fleet_queue_depth", shard.engines[e],
                    {{"shard", shard.shard}, {"engine", std::to_string(e)}});
    }
  }
  // Artifact identity per shard: the generation as the gauge value (small,
  // exactly representable) with the 64-bit digest as a hex label — a u64
  // digest as a double sample would silently lose low bits.
  for (const fleet::ShardArtifact& artifact : stats.artifacts) {
    char digest_hex[17];
    std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                  static_cast<unsigned long long>(artifact.digest));
    out.gauge_int("noble_fleet_artifact_generation", artifact.generation,
                  {{"shard", artifact.shard}, {"digest", digest_hex}});
  }
  // Implementation-specific samples (a cluster node agent's spill counters;
  // a plain Router contributes nothing).
  routing_.splice_metrics(out);
  out.append(obs::Registry::global().collect());
  return out;
}

std::string Listener::stats_text() const {
  return obs::render_prometheus(stats_snapshot());
}

}  // namespace noble::gateway
