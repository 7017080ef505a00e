// The five workloads' traffic, the quality pass and the session replay.
//
// Every generator records, per request, when it was due and when the client
// saw the answer. Closed loops are due the moment their client (or pipeline
// slot) frees up; the open loop is due at its Poisson send time, so a stall
// anywhere in the stack is charged to every request scheduled behind it.
// Every served Wi-Fi fix is compared with direct inference by query index;
// every served IMU fix is kept for a serial replay after the run.
#include <cmath>
#include <deque>
#include <future>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "common/rng.h"
#include "gateway/client.h"
#include "gateway/wire.h"
#include "ledger.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ledger {

using namespace noble;
namespace wire = gateway::wire;

namespace {

constexpr std::size_t kPipelineDepth = 128;
constexpr std::size_t kTrackingSessions = 16;
constexpr double kWireRate = 1000.0;
constexpr std::size_t kWireSessions = 8;
constexpr std::uint64_t kWireBulkDeadlineUs = 50'000;

/// Endless seeded walk over [0, n): a fresh shuffle every pass.
class Order {
 public:
  Order(std::size_t n, Rng rng) : idx_(n), rng_(rng), pos_(n) {
    std::iota(idx_.begin(), idx_.end(), 0u);
  }
  std::uint32_t next() {
    if (pos_ == idx_.size()) {
      rng_.shuffle(idx_);
      pos_ = 0;
    }
    return idx_[pos_++];
  }

 private:
  std::vector<std::uint32_t> idx_;
  Rng rng_;
  std::size_t pos_;
};

/// The stack's total queue depth sampled at 100 Hz from a generator thread.
struct DepthSampler {
  const Stack* stack = nullptr;  ///< null = not sampling (untraced runs)
  std::int64_t next_ns = 0;
  std::size_t max = 0;

  void poll() {
    if (stack == nullptr) return;
    const std::int64_t t = now_ns();
    if (t < next_ns) return;
    next_ns = t + 10'000'000;
    std::size_t depth = 0;
    for (const fleet::Router* router : stack->routers()) {
      for (const fleet::ShardDepths& shard : router->queue_depths()) {
        for (std::size_t d : shard.engines) depth += d;
      }
    }
    max = std::max(max, depth);
  }
};

engine::SubmitOptions options_for(Kind kind, bool trace, std::uint64_t id) {
  engine::SubmitOptions options =
      kind == Kind::kBulk ? engine::SubmitOptions::bulk() : engine::SubmitOptions{};
  if (trace && (options.trace = obs::Tracer::global().start(id)) != nullptr) {
    options.trace->stamp(obs::Mark::kSubmit);
  }
  return options;
}

void count_refusal(engine::SubmitStatus status, Outcome& out) {
  if (status == engine::SubmitStatus::kExpired) {
    ++out.expired;
  } else {
    ++out.refused;
  }
}

void count_wire_status(wire::Status status, Outcome& out) {
  switch (status) {
    case wire::Status::kExpired:
    case wire::Status::kDeadlineExpired:
      ++out.expired;
      break;
    case wire::Status::kStopped:
      ++out.transport;
      break;
    default:
      ++out.refused;
  }
}

/// Resolves an accepted future, classifying a failure into `out`.
bool settle(std::future<serve::Fix>& result, serve::Fix* fix, Outcome& out) {
  try {
    *fix = result.get();
    return true;
  } catch (const engine::DeadlineExpired&) {
    ++out.expired;
  } catch (const wire::WireRejected& rejected) {
    count_wire_status(rejected.status, out);
  } catch (...) {
    ++out.transport;
  }
  return false;
}

/// One accepted in-process request on its way to the client.
struct Inflight {
  std::uint32_t index = 0;  ///< query index, or session slot for updates
  std::int64_t due_ns = 0;
  std::uint64_t id = 0;
  std::future<serve::Fix> result;
};

// --- wifi_interactive ----------------------------------------------------------

TrafficResult run_closed_interactive(const TrafficContext& ctx) {
  constexpr std::size_t kClients = 2;
  std::vector<TrafficResult> parts(kClients);
  DepthSampler depth;
  if (ctx.spans != nullptr) depth.stack = &ctx.stack;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      TrafficResult& out = parts[c];
      SpanLog* spans = ctx.spans ? ctx.spans->thread_log() : nullptr;
      Order order(ctx.pool.scans.size(), Rng(ctx.seed).split(c + 1));
      fleet::Routing& routing = ctx.stack.routing();
      // No think time: each request falls due the moment the previous one
      // was answered.
      std::int64_t due = now_ns();
      while (now_ns() < ctx.plan.end_ns()) {
        if (c == 0) depth.poll();
        const std::uint32_t qi = order.next();
        const std::uint64_t id = ctx.spans ? ctx.spans->next_id() : 0;
        out.gen_lag_us.push_back(static_cast<double>(now_ns() - due) / 1e3);
        ++out.outcome.attempted;
        engine::Submission sub;
        {
          ScopedSpan span(spans, "Router::submit", id, id);
          sub = routing.submit(Stack::kShard, ctx.pool.scans[qi],
                               options_for(Kind::kFix, ctx.trace_in_process, id));
        }
        if (!sub.accepted()) {
          count_refusal(sub.status, out.outcome);
          due = now_ns();
          continue;
        }
        serve::Fix fix;
        bool ok;
        {
          ScopedSpan span(spans, "future.get", id, id);
          ok = settle(sub.result, &fix, out.outcome);
        }
        const std::int64_t done = now_ns();
        if (spans != nullptr) spans->add("fix", due, done, id, 0);
        if (ok) {
          if (!(fix == ctx.memo[qi])) ++out.outcome.mismatches;
          out.samples.push_back(Sample{Kind::kFix, due, done});
        }
        due = done;
      }
    });
  }
  for (auto& t : clients) t.join();
  TrafficResult out = std::move(parts[0]);
  for (std::size_t c = 1; c < kClients; ++c) {
    out.samples.insert(out.samples.end(), parts[c].samples.begin(), parts[c].samples.end());
    out.gen_lag_us.insert(out.gen_lag_us.end(), parts[c].gen_lag_us.begin(),
                          parts[c].gen_lag_us.end());
    out.outcome.merge(parts[c].outcome);
  }
  out.queue_depth_max = depth.max;
  return out;
}

// --- wifi_bulk and cluster_spill -------------------------------------------------

TrafficResult run_pipelined_bulk(const TrafficContext& ctx) {
  TrafficResult out;
  SpanLog* spans = ctx.spans ? ctx.spans->thread_log() : nullptr;
  DepthSampler depth;
  if (spans != nullptr) depth.stack = &ctx.stack;
  Order order(ctx.pool.scans.size(), Rng(ctx.seed).split(1));
  fleet::Routing& routing = ctx.stack.routing();
  std::deque<Inflight> inflight;

  // Refills the pipeline with requests that fell due at `due` (when their
  // slot freed up); stops early on a refusal so a full queue is retried
  // after the next completion instead of spun on.
  const auto refill = [&](std::int64_t due) {
    while (inflight.size() < kPipelineDepth) {
      Inflight req;
      req.index = order.next();
      req.id = ctx.spans ? ctx.spans->next_id() : 0;
      req.due_ns = due;
      out.gen_lag_us.push_back(static_cast<double>(now_ns() - due) / 1e3);
      ++out.outcome.attempted;
      engine::Submission sub;
      {
        ScopedSpan span(spans, "Router::submit", req.id, req.id);
        sub = routing.submit(Stack::kShard, ctx.pool.scans[req.index],
                             options_for(Kind::kBulk, ctx.trace_in_process, req.id));
      }
      if (!sub.accepted()) {
        count_refusal(sub.status, out.outcome);
        return;
      }
      req.result = std::move(sub.result);
      inflight.push_back(std::move(req));
    }
  };

  refill(now_ns());
  while (!inflight.empty()) {
    depth.poll();
    Inflight req = std::move(inflight.front());
    inflight.pop_front();
    serve::Fix fix;
    bool ok;
    {
      ScopedSpan span(spans, "future.get", req.id, req.id);
      ok = settle(req.result, &fix, out.outcome);
    }
    const std::int64_t done = now_ns();
    if (spans != nullptr) spans->add("bulk", req.due_ns, done, req.id, 0);
    if (ok) {
      if (!(fix == ctx.memo[req.index])) ++out.outcome.mismatches;
      out.samples.push_back(Sample{Kind::kBulk, req.due_ns, done});
    }
    if (done < ctx.plan.end_ns()) refill(done);
  }
  out.queue_depth_max = depth.max;
  return out;
}

// --- imu_tracking ---------------------------------------------------------------

TrafficResult run_session_tracking(const TrafficContext& ctx) {
  TrafficResult out;
  SpanLog* spans = ctx.spans ? ctx.spans->thread_log() : nullptr;
  DepthSampler depth;
  if (spans != nullptr) depth.stack = &ctx.stack;
  Order path_order(ctx.pool.paths.size(), Rng(ctx.seed).split(2));
  fleet::Routing& routing = ctx.stack.routing();

  struct Slot {
    fleet::FleetSession handle;
    const TestPath* path = nullptr;
    std::size_t next = 0;    ///< next segment of the path
    std::size_t stream = 0;  ///< index into out.streams
  };
  std::vector<Slot> slots(kTrackingSessions);
  std::deque<Inflight> inflight;

  // Anchors a slot at the next path's start (a device re-anchoring at a
  // reference point once its walk ends).
  const auto anchor = [&](Slot& slot) {
    slot.path = &ctx.pool.paths[path_order.next()];
    slot.next = 0;
    std::optional<fleet::FleetSession> handle =
        routing.open_session(Stack::kShard, slot.path->start);
    if (!handle) return false;
    slot.handle = *handle;
    slot.stream = out.streams.size();
    out.streams.push_back(SessionStream{slot.path->start, {}, {}, {}});
    return true;
  };
  // Sends a slot's next segment, due when the slot's previous update was
  // answered (re-anchoring, if any, counts as client turnaround).
  const auto submit = [&](std::uint32_t s, std::int64_t due) {
    Slot& slot = slots[s];
    Inflight req;
    req.index = s;
    req.id = ctx.spans ? ctx.spans->next_id() : 0;
    const auto seg = static_cast<std::uint32_t>(slot.path->first_segment + slot.next);
    req.due_ns = due;
    out.gen_lag_us.push_back(static_cast<double>(now_ns() - due) / 1e3);
    ++out.outcome.attempted;
    engine::Submission sub;
    {
      ScopedSpan span(spans, "Router::track", req.id, req.id);
      sub = routing.track(slot.handle, ctx.pool.segments[seg],
                          options_for(Kind::kTrack, ctx.trace_in_process, req.id));
    }
    SessionStream& stream = out.streams[slot.stream];
    stream.segments.push_back(seg);
    stream.fixes.emplace_back();
    stream.ok.push_back(0);
    if (!sub.accepted()) {
      count_refusal(sub.status, out.outcome);
      return false;
    }
    req.result = std::move(sub.result);
    inflight.push_back(std::move(req));
    return true;
  };

  for (std::uint32_t s = 0; s < slots.size(); ++s) {
    if (anchor(slots[s])) {
      submit(s, now_ns());
    } else {
      ++out.outcome.transport;
    }
  }
  while (!inflight.empty()) {
    depth.poll();
    Inflight req = std::move(inflight.front());
    inflight.pop_front();
    Slot& slot = slots[req.index];
    serve::Fix fix;
    bool ok;
    {
      ScopedSpan span(spans, "future.get", req.id, req.id);
      ok = settle(req.result, &fix, out.outcome);
    }
    const std::int64_t done = now_ns();
    if (spans != nullptr) spans->add("track", req.due_ns, done, req.id, 0);
    SessionStream& stream = out.streams[slot.stream];
    if (ok) {
      stream.fixes.back() = fix;
      stream.ok.back() = 1;
      out.samples.push_back(Sample{Kind::kTrack, req.due_ns, done});
    }
    if (++slot.next == slot.path->num_segments) {
      routing.close_session(slot.handle);
      if (done >= ctx.plan.end_ns()) continue;
      if (!anchor(slot)) {
        ++out.outcome.transport;
        continue;
      }
    }
    if (done < ctx.plan.end_ns()) submit(req.index, done);
  }
  for (Slot& slot : slots) {
    if (slot.next != slot.path->num_segments) routing.close_session(slot.handle);
  }
  out.queue_depth_max = depth.max;
  return out;
}

// --- wire_mixed -----------------------------------------------------------------

/// One scheduled open-loop request.
struct Arrival {
  std::int64_t due_ns = 0;
  Kind kind = Kind::kFix;
  std::uint32_t index = 0;  ///< query index, or session for updates
  std::uint32_t conn = 0;
};

/// Response bookkeeping for one gateway connection: which arrival each
/// request id belongs to. A response can beat the dispatcher's bookkeeping
/// (the id is only known once send returns), so early answers wait here.
struct WireConn {
  std::optional<gateway::GatewayClient> client;
  std::mutex mu;
  std::unordered_map<std::uint64_t, std::uint32_t> pending;  ///< id -> arrival
  struct Early {
    gateway::WireResult result;
    std::int64_t done_ns = 0;
  };
  std::unordered_map<std::uint64_t, Early> early;
};

TrafficResult run_wire_mixed(const TrafficContext& ctx) {
  TrafficResult out;
  const std::uint16_t port = ctx.stack.gateway_port();
  std::vector<WireConn> conns(2);
  for (WireConn& conn : conns) {
    conn.client = gateway::GatewayClient::connect("127.0.0.1", port);
    if (!conn.client) {
      ++out.outcome.transport;
      return out;
    }
  }
  std::optional<gateway::GatewayClient> scraper =
      gateway::GatewayClient::connect("127.0.0.1", port);
  if (!scraper) {
    ++out.outcome.transport;
    return out;
  }

  // Sticky sessions, opened before the readers start (open_session is a
  // synchronous call on the same socket). Each streams its own shuffled
  // walk over the test paths' segments.
  Rng rng(ctx.seed);
  Order path_order(ctx.pool.paths.size(), rng.split(2));
  struct WireSession {
    std::uint32_t conn = 0;
    std::uint64_t wire_id = 0;
    const TestPath* path = nullptr;
    std::size_t next = 0;
  };
  std::vector<WireSession> sessions(kWireSessions);
  for (std::uint32_t s = 0; s < kWireSessions; ++s) {
    WireSession& session = sessions[s];
    session.conn = s % 2;
    session.path = &ctx.pool.paths[path_order.next()];
    const std::optional<std::uint64_t> id =
        conns[session.conn].client->open_session(Stack::kShard, session.path->start);
    if (!id) {
      ++out.outcome.transport;
      return out;
    }
    session.wire_id = *id;
    out.streams.push_back(SessionStream{session.path->start, {}, {}, {}});
  }

  // The whole schedule is drawn up front from the seed.
  std::vector<Arrival> arrivals;
  {
    Rng draw = rng.split(1);
    Order scans(ctx.pool.scans.size(), rng.split(3));
    for (std::int64_t due : poisson_schedule(draw, kWireRate, now_ns() + 1'000'000,
                                             ctx.plan.end_ns())) {
      Arrival a;
      a.due_ns = due;
      const double mix = draw.uniform();
      if (mix < 0.2) {
        a.kind = Kind::kTrack;
        a.index = static_cast<std::uint32_t>(draw.uniform_int(0, kWireSessions - 1));
        a.conn = sessions[a.index].conn;
      } else {
        a.kind = mix < 0.4 ? Kind::kBulk : Kind::kFix;
        a.index = scans.next();
        a.conn = static_cast<std::uint32_t>(arrivals.size() % 2);
      }
      arrivals.push_back(a);
    }
  }
  // Per-arrival session stream slot, filled by the dispatcher at send time.
  std::vector<std::uint32_t> stream_pos(arrivals.size(), 0);
  const std::uint64_t id_base = ctx.spans ? ctx.spans->reserve_ids(arrivals.size()) : 0;

  std::atomic<std::size_t> outstanding{0};
  std::atomic<bool> stop{false};
  std::vector<TrafficResult> reader_out(conns.size());
  std::mutex stream_mu;  ///< guards out.streams fix/ok slots

  // Applies one response to its arrival (reader threads and, for early
  // answers, the dispatcher).
  const auto complete = [&](TrafficResult& res, SpanLog* spans, std::uint32_t ai,
                            const gateway::WireResult& result, std::int64_t done) {
    const Arrival& a = arrivals[ai];
    if (spans != nullptr) spans->add(kind_name(a.kind), a.due_ns, done, id_base + ai, 0);
    outstanding.fetch_sub(1);
    if (!result.ok()) {
      count_wire_status(result.status, res.outcome);
      return;
    }
    res.samples.push_back(Sample{a.kind, a.due_ns, done});
    if (a.kind == Kind::kTrack) {
      std::lock_guard<std::mutex> lock(stream_mu);
      SessionStream& stream = out.streams[a.index];
      stream.fixes[stream_pos[ai]] = result.fix;
      stream.ok[stream_pos[ai]] = 1;
    } else if (!(result.fix == ctx.memo[a.index])) {
      ++res.outcome.mismatches;
    }
  };

  std::vector<std::thread> readers;
  for (std::size_t c = 0; c < conns.size(); ++c) {
    readers.emplace_back([&, c] {
      WireConn& conn = conns[c];
      TrafficResult& res = reader_out[c];
      SpanLog* spans = ctx.spans ? ctx.spans->thread_log() : nullptr;
      while (!stop.load()) {
        const std::int64_t start = now_ns();
        std::optional<std::pair<std::uint64_t, gateway::WireResult>> got =
            conn.client->recv_fix(20);
        const std::int64_t done = now_ns();
        if (!got) {
          if (!conn.client->valid()) break;
          continue;
        }
        std::uint32_t ai = 0;
        {
          std::lock_guard<std::mutex> lock(conn.mu);
          auto it = conn.pending.find(got->first);
          if (it == conn.pending.end()) {
            conn.early.emplace(got->first, WireConn::Early{got->second, done});
            continue;
          }
          ai = it->second;
          conn.pending.erase(it);
        }
        if (spans != nullptr) spans->add("GatewayClient::recv_fix", start, done, id_base + ai,
                                      id_base + ai);
        complete(res, spans, ai, got->second, done);
      }
    });
  }

  // The dispatcher: one thread, on schedule, with a 1 Hz binary scrape on
  // the third connection.
  SpanLog* spans = ctx.spans ? ctx.spans->thread_log() : nullptr;
  DepthSampler depth;
  if (spans != nullptr) depth.stack = &ctx.stack;
  std::int64_t next_scrape = arrivals.empty() ? 0 : arrivals.front().due_ns;
  std::vector<std::int64_t> due(arrivals.size());
  for (std::size_t ai = 0; ai < arrivals.size(); ++ai) due[ai] = arrivals[ai].due_ns;
  const auto send = [&](std::size_t i) {
    const auto ai = static_cast<std::uint32_t>(i);
    const Arrival& a = arrivals[ai];
    ++out.outcome.attempted;
    WireConn& conn = conns[a.conn];
    std::uint64_t id = 0;
    {
      ScopedSpan span(spans,
                      a.kind == Kind::kTrack ? "GatewayClient::send_track"
                                             : "GatewayClient::send_locate",
                      id_base + ai, id_base + ai);
      if (a.kind == Kind::kTrack) {
        WireSession& session = sessions[a.index];
        const auto seg = static_cast<std::uint32_t>(session.path->first_segment + session.next);
        if (++session.next == session.path->num_segments) {
          session.path = &ctx.pool.paths[path_order.next()];
          session.next = 0;
        }
        {
          std::lock_guard<std::mutex> lock(stream_mu);
          SessionStream& stream = out.streams[a.index];
          stream_pos[ai] = static_cast<std::uint32_t>(stream.segments.size());
          stream.segments.push_back(seg);
          stream.fixes.emplace_back();
          stream.ok.push_back(0);
        }
        id = conn.client->send_track(session.wire_id, ctx.pool.segments[seg],
                                     engine::RequestClass::kInteractive, 0);
      } else if (a.kind == Kind::kBulk) {
        id = conn.client->send_locate(Stack::kShard, ctx.pool.scans[a.index],
                                      engine::RequestClass::kBulk, kWireBulkDeadlineUs);
      } else {
        id = conn.client->send_locate(Stack::kShard, ctx.pool.scans[a.index],
                                      engine::RequestClass::kInteractive, 0);
      }
    }
    if (id == 0) {
      ++out.outcome.transport;
      return;
    }
    outstanding.fetch_add(1);
    std::optional<WireConn::Early> early;
    {
      std::lock_guard<std::mutex> lock(conn.mu);
      auto it = conn.early.find(id);
      if (it == conn.early.end()) {
        conn.pending.emplace(id, ai);
      } else {
        early = it->second;
        conn.early.erase(it);
      }
    }
    if (early) complete(out, spans, ai, early->result, early->done_ns);
    depth.poll();
    if (now_ns() >= next_scrape) {
      const std::int64_t start = now_ns();
      std::optional<std::string> bytes;
      {
        ScopedSpan span(spans, "GatewayClient::stats_snapshot_bytes", 0, 0);
        bytes = scraper->stats_snapshot_bytes();
      }
      out.scrape_us.push_back(static_cast<double>(now_ns() - start) / 1e3);
      ++out.outcome.attempted;
      if (!bytes || !obs::decode_snapshot(*bytes)) ++out.outcome.transport;
      next_scrape = start + 1'000'000'000;
    }
  };
  dispatch_open_loop(due, send, &out.gen_lag_us);

  // Drain: every request gets its answer or is counted lost.
  const std::int64_t give_up = now_ns() + 5'000'000'000;
  while (outstanding.load() > 0 && now_ns() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  out.outcome.transport += outstanding.load();
  for (std::uint32_t s = 0; s < kWireSessions; ++s) {
    conns[sessions[s].conn].client->close_session(sessions[s].wire_id);
  }
  for (TrafficResult& res : reader_out) {
    out.samples.insert(out.samples.end(), res.samples.begin(), res.samples.end());
    out.outcome.merge(res.outcome);
  }
  out.queue_depth_max = depth.max;
  return out;
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"wifi_interactive", Front::kRouter, Kind::kFix, run_closed_interactive,
       "2 closed-loop interactive clients: batching window and worker wake-up bound"},
      {"wifi_bulk", Front::kRouter, Kind::kBulk, run_pipelined_bulk,
       "128 bulk scans in flight: full batches, packed GEMM and plan bound"},
      {"imu_tracking", Front::kRouter, Kind::kFix, run_session_tracking,
       "16 sessions, one update in flight each: session FIFOs and IMU coalescing"},
      {"wire_mixed", Front::kGateway, Kind::kFix, run_wire_mixed,
       "open-loop 1000/s mix over loopback: framing, gateway poll loop, scrape"},
      {"cluster_spill", Front::kCluster, Kind::kBulk, run_pipelined_bulk,
       "128 bulk scans into a tight node that spills to a peer: spill RPC and codec"},
  };
  return kWorkloads;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

// --- quality pass ------------------------------------------------------------------

Quality run_quality(const WorkloadSpec& spec, const Pool& pool, Stack& stack,
                    const Memo& memo) {
  Quality q;
  const std::size_t n = pool.scans.size();
  std::vector<serve::Fix> fixes(n);
  std::vector<std::uint8_t> ok(n, 0);
  std::vector<double> path_error;

  if (spec.front == Front::kGateway) {
    std::optional<gateway::GatewayClient> client =
        gateway::GatewayClient::connect("127.0.0.1", stack.gateway_port());
    if (!client) {
      q.outcome.transport += n + pool.paths.size();
      return q;
    }
    for (std::size_t i = 0; i < n; ++i) {
      ++q.outcome.attempted;
      const gateway::WireResult r = client->locate(Stack::kShard, pool.scans[i]);
      if (!r.ok()) {
        count_wire_status(r.status, q.outcome);
        continue;
      }
      fixes[i] = r.fix;
      ok[i] = 1;
    }
    for (const TestPath& path : pool.paths) {
      const std::optional<std::uint64_t> session = client->open_session(Stack::kShard, path.start);
      if (!session) {
        ++q.outcome.transport;
        continue;
      }
      SessionStream stream{path.start, {}, {}, {}};
      for (std::size_t s = 0; s < path.num_segments; ++s) {
        const auto seg = static_cast<std::uint32_t>(path.first_segment + s);
        ++q.outcome.attempted;
        const gateway::WireResult r = client->track(*session, pool.segments[seg]);
        stream.segments.push_back(seg);
        stream.fixes.push_back(r.fix);
        stream.ok.push_back(r.ok() ? 1 : 0);
        if (!r.ok()) count_wire_status(r.status, q.outcome);
      }
      if (!stream.ok.empty() && stream.ok.back() != 0) {
        path_error.push_back(geo::distance(stream.fixes.back().position, path.end));
      }
      client->close_session(*session);
      q.streams.push_back(std::move(stream));
    }
  } else {
    fleet::Routing& routing = stack.routing();
    constexpr std::size_t kWindow = 32;
    std::deque<Inflight> inflight;
    for (std::size_t i = 0; i < n || !inflight.empty();) {
      if (i < n && inflight.size() < kWindow) {
        ++q.outcome.attempted;
        engine::Submission sub = routing.submit(
            Stack::kShard, pool.scans[i], options_for(spec.scans, false, 0));
        if (sub.accepted()) {
          Inflight req;
          req.index = static_cast<std::uint32_t>(i);
          req.result = std::move(sub.result);
          inflight.push_back(std::move(req));
        } else {
          count_refusal(sub.status, q.outcome);
        }
        ++i;
        continue;
      }
      Inflight req = std::move(inflight.front());
      inflight.pop_front();
      if (settle(req.result, &fixes[req.index], q.outcome)) ok[req.index] = 1;
    }
    for (const TestPath& path : pool.paths) {
      std::optional<fleet::FleetSession> session = routing.open_session(Stack::kShard, path.start);
      if (!session) {
        ++q.outcome.transport;
        continue;
      }
      SessionStream stream{path.start, {}, {}, {}};
      std::vector<std::future<serve::Fix>> results;
      for (std::size_t s = 0; s < path.num_segments; ++s) {
        const auto seg = static_cast<std::uint32_t>(path.first_segment + s);
        ++q.outcome.attempted;
        engine::Submission sub = routing.track(*session, pool.segments[seg]);
        stream.segments.push_back(seg);
        stream.fixes.emplace_back();
        stream.ok.push_back(0);
        if (sub.accepted()) {
          results.push_back(std::move(sub.result));
        } else {
          count_refusal(sub.status, q.outcome);
          results.emplace_back();
        }
      }
      for (std::size_t s = 0; s < results.size(); ++s) {
        if (results[s].valid() && settle(results[s], &stream.fixes[s], q.outcome)) {
          stream.ok[s] = 1;
        }
      }
      if (!stream.ok.empty() && stream.ok.back() != 0) {
        path_error.push_back(geo::distance(stream.fixes.back().position, path.end));
      }
      routing.close_session(*session);
      q.streams.push_back(std::move(stream));
    }
  }

  std::vector<double> scan_error;
  for (std::size_t i = 0; i < n; ++i) {
    if (ok[i] == 0) continue;
    if (!(fixes[i] == memo[i])) ++q.outcome.mismatches;
    scan_error.push_back(geo::distance(fixes[i].position, pool.scan_truth[i]));
  }
  q.wifi_error_m = mean(scan_error);
  q.track_error_m = mean(path_error);
  return q;
}

std::uint64_t replay_sessions(const serve::ImuLocalizer& imu, const Pool& pool,
                              const std::vector<SessionStream>& streams) {
  std::uint64_t mismatches = 0;
  for (const SessionStream& stream : streams) {
    serve::TrackingSession session = imu.start_session(stream.start);
    for (std::size_t i = 0; i < stream.segments.size(); ++i) {
      if (stream.ok[i] == 0) continue;  // refused or expired: never applied
      if (!(session.update(pool.segments[stream.segments[i]]) == stream.fixes[i])) {
        ++mismatches;
      }
    }
  }
  return mismatches;
}

}  // namespace ledger
