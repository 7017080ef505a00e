#include "support/bench_util.h"

#include "support/env_config.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <thread>
#include <utility>

#include "common/config.h"
#include "common/rng.h"
#include "gateway/client.h"
#include "kernels/kernels.h"
#include "obs/trace.h"

namespace noble::bench {

core::WifiExperimentConfig uji_config() {
  core::WifiExperimentConfig cfg;
  cfg.total_samples = 9000;  // scaled by NOBLE_SCALE inside the builder
  cfg.radio.aps_per_floor = 8;
  cfg.radio.shadowing_sigma_db = 6.5;
  cfg.radio.measurement_noise_db = 3.5;
  cfg.seed = static_cast<std::uint64_t>(env_int("NOBLE_SEED", 2021));
  return cfg;
}

core::WifiExperimentConfig ipin_config() {
  core::WifiExperimentConfig cfg = uji_config();
  cfg.total_samples = 3000;
  cfg.radio.aps_per_floor = 12;
  return cfg;
}

core::ImuExperimentConfig imu_config() {
  core::ImuExperimentConfig cfg;
  cfg.num_paths = 6857;  // paper's path count; scaled by NOBLE_SCALE
  cfg.readings_per_segment = 16;
  cfg.seed = static_cast<std::uint64_t>(env_int("NOBLE_SEED", 2021));
  return cfg;
}

core::NobleWifiConfig noble_wifi_config() {
  core::NobleWifiConfig cfg;
  cfg.quantize.tau = env_double("NOBLE_TAU", 2.0);
  cfg.quantize.coarse_l = cfg.quantize.tau * 5.0;
  cfg.epochs = static_cast<std::size_t>(env_int("NOBLE_EPOCHS", 30));
  return cfg;
}

core::RegressionConfig regression_config() {
  core::RegressionConfig cfg;
  cfg.epochs = static_cast<std::size_t>(env_int("NOBLE_EPOCHS", 30));
  return cfg;
}

core::NobleImuConfig noble_imu_config() {
  core::NobleImuConfig cfg;
  cfg.epochs = static_cast<std::size_t>(env_int("NOBLE_IMU_EPOCHS", 60));
  return cfg;
}

engine::EngineConfig engine_config_from_env(engine::EngineConfig defaults) {
  EnvConfig env;
  return env.engine(std::move(defaults));
}

std::string describe_engine_config(const engine::EngineConfig& cfg) {
  char buffer[384];
  std::snprintf(buffer, sizeof(buffer),
                "%zu workers, max_batch %zu, max_wait %llu us%s, queue_cap %zu "
                "(class caps %zu:%zu), deadline %llu us, backend %s, cache %zu, "
                "kernel %s",
                cfg.workers, cfg.max_batch,
                static_cast<unsigned long long>(cfg.max_wait_us),
                cfg.adaptive_wait ? " (adaptive)" : "", cfg.queue_cap,
                cfg.interactive_cap, cfg.bulk_cap,
                static_cast<unsigned long long>(cfg.default_deadline_us),
                engine::precision_name(cfg.precision).data(), cfg.cache_capacity,
                kernels::isa_name(kernels::active_isa()));
  return buffer;
}

void print_banner(const std::string& bench_name, const std::string& paper_ref) {
  kernels::apply_env_override();  // honor NOBLE_KERNEL before reporting it
  std::printf("==============================================================\n");
  std::printf("NObLe reproduction bench: %s\n", bench_name.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("Kernel ISA: %s (avx2 %s; override with NOBLE_KERNEL=scalar|avx2|auto)\n",
              kernels::isa_name(kernels::active_isa()),
              kernels::avx2_supported() ? "available" : "unavailable");
  std::printf("NOBLE_SCALE=%.2f (synthetic substrate; see DESIGN.md for the\n",
              global_scale());
  std::printf("substitution table — shapes, not absolute numbers, are the target)\n");
  std::printf("==============================================================\n");
}

void print_wifi_report(const std::string& model, const core::WifiReport& report) {
  std::printf("%-28s building=%6.2f%% floor=%6.2f%% class=%6.2f%% | "
              "mean=%6.2f m median=%6.2f m p90=%6.2f m | on-map=%5.1f%%\n",
              model.c_str(), 100.0 * report.building_accuracy,
              100.0 * report.floor_accuracy, 100.0 * report.class_accuracy,
              report.errors.mean, report.errors.median, report.errors.p90,
              100.0 * report.structure_score);
}

void print_position_row(const std::string& model, const core::PositionReport& report,
                        const std::string& paper_mean, const std::string& paper_median) {
  std::printf("%-28s paper(mean/med)=%7s/%-7s measured: mean=%6.2f m "
              "median=%6.2f m p90=%6.2f m | on-map=%5.1f%%\n",
              model.c_str(), paper_mean.c_str(), paper_median.c_str(),
              report.errors.mean, report.errors.median, report.errors.p90,
              100.0 * report.structure_score);
}

Histogram latency_histogram() { return Histogram::latency_us(); }

void print_latency_row(const std::string& mode, std::size_t batch,
                       const Histogram& latencies_us) {
  std::printf("  %-14s batch %4zu   p50 %8.1f us   p95 %8.1f us   "
              "p99 %8.1f us   (%llu samples)\n",
              mode.c_str(), batch, latencies_us.percentile(50.0),
              latencies_us.percentile(95.0), latencies_us.percentile(99.0),
              static_cast<unsigned long long>(latencies_us.count()));
}

namespace {

using LoadClock = std::chrono::steady_clock;

double load_us_since(const LoadClock::time_point& t0) {
  return std::chrono::duration<double, std::micro>(LoadClock::now() - t0).count();
}

void merge_class_report(ClassLoadReport& into, const ClassLoadReport& from) {
  into.attempted += from.attempted;
  into.accepted += from.accepted;
  into.rejected += from.rejected;
  into.expired += from.expired;
  into.completed += from.completed;
  into.latency_us.merge(from.latency_us);
}

/// Resolves one accepted future into the report: a fix, a deadline lapse, or
/// (socket targets only — their submits are optimistic) a late rejection
/// that arrived as a response frame instead of an admission verdict.
void settle(ClassLoadReport& report, const LoadClock::time_point& submitted_at,
            std::future<noble::serve::Fix>& result) {
  try {
    (void)result.get();
    ++report.completed;
    report.latency_us.record(load_us_since(submitted_at));
  } catch (const engine::DeadlineExpired&) {
    ++report.expired;
  } catch (const WireRejected& rejected) {
    if (rejected.status == gateway::wire::Status::kDeadlineExpired ||
        rejected.status == gateway::wire::Status::kExpired) {
      ++report.expired;
    } else {
      ++report.rejected;
    }
  }
}

}  // namespace

MixedLoadReport run_mixed_load(LoadTarget& target,
                               const std::vector<std::string>& shard_keys,
                               const std::vector<serve::RssiVector>& queries,
                               const MixedLoadConfig& cfg) {
  MixedLoadReport report;
  if (shard_keys.empty() || queries.empty()) return report;
  std::vector<ClassLoadReport> interactive(cfg.interactive_clients);
  std::vector<ClassLoadReport> bulk(cfg.bulk_clients);
  std::vector<std::thread> clients;
  clients.reserve(cfg.interactive_clients + cfg.bulk_clients);
  std::atomic<std::size_t> interactive_live{cfg.interactive_clients};
  const auto t0 = LoadClock::now();

  for (std::size_t c = 0; c < cfg.interactive_clients; ++c) {
    clients.emplace_back([&, c] {
      ClassLoadReport& mine = interactive[c];
      std::vector<std::pair<LoadClock::time_point, std::future<noble::serve::Fix>>>
          inflight;
      inflight.reserve(cfg.interactive_inflight_window);
      const auto flush = [&] {
        for (auto& [at, result] : inflight) settle(mine, at, result);
        inflight.clear();
      };
      for (std::size_t r = 0; r < cfg.interactive_requests; ++r) {
        const auto& q = queries[(c * 7919 + r) % queries.size()];
        const std::string& key = shard_keys[(c + r) % shard_keys.size()];
        ++mine.attempted;
        const auto submitted_at = LoadClock::now();
        engine::Submission s = target.submit(key, q, {});
        while (cfg.retry_interactive_full &&
               s.status == engine::SubmitStatus::kQueueFull) {
          std::this_thread::yield();
          s = target.submit(key, q, {});
        }
        if (s.accepted()) {
          ++mine.accepted;
          inflight.emplace_back(submitted_at, std::move(s.result));
          if (inflight.size() >= cfg.interactive_inflight_window) flush();
        } else if (s.status == engine::SubmitStatus::kExpired) {
          ++mine.expired;
        } else {
          ++mine.rejected;
        }
        if (cfg.interactive_pace_us > 0) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(cfg.interactive_pace_us));
        }
      }
      flush();
      interactive_live.fetch_sub(1, std::memory_order_relaxed);
    });
  }

  for (std::size_t c = 0; c < cfg.bulk_clients; ++c) {
    clients.emplace_back([&, c] {
      ClassLoadReport& mine = bulk[c];
      std::vector<std::pair<LoadClock::time_point, std::future<noble::serve::Fix>>>
          inflight;
      inflight.reserve(cfg.bulk_inflight_window);
      const auto flush = [&] {
        for (auto& [at, result] : inflight) settle(mine, at, result);
        inflight.clear();
      };
      for (std::size_t r = 0;
           r < cfg.bulk_requests ||
           (cfg.bulk_sustain &&
            interactive_live.load(std::memory_order_relaxed) > 0);
           ++r) {
        const auto& q = queries[((c + 1) * 104729 + r) % queries.size()];
        const std::string& key = shard_keys[(c + r) % shard_keys.size()];
        engine::SubmitOptions options;  // baseline: default class, no deadline
        if (cfg.classed) {
          options = engine::SubmitOptions::bulk();
          if (cfg.bulk_deadline_us > 0) options.expires_in_us(cfg.bulk_deadline_us);
        }
        ++mine.attempted;
        const auto submitted_at = LoadClock::now();
        engine::Submission s = target.submit(key, q, options);
        if (s.accepted()) {
          ++mine.accepted;
          inflight.emplace_back(submitted_at, std::move(s.result));
          if (inflight.size() >= cfg.bulk_inflight_window) flush();
        } else if (s.status == engine::SubmitStatus::kExpired) {
          ++mine.expired;
        } else {
          // Shed, not retried: bulk under overload is load the fleet chose
          // to drop, and the counter is the measurement.
          ++mine.rejected;
        }
      }
      flush();
    });
  }

  for (std::thread& client : clients) client.join();
  report.wall_seconds =
      std::chrono::duration<double>(LoadClock::now() - t0).count();
  for (const ClassLoadReport& r : interactive) merge_class_report(report.interactive, r);
  for (const ClassLoadReport& r : bulk) merge_class_report(report.bulk, r);
  if (report.wall_seconds > 0.0) {
    report.qps = static_cast<double>(report.interactive.completed +
                                     report.bulk.completed) /
                 report.wall_seconds;
  }
  return report;
}

// --- load targets ------------------------------------------------------------

engine::Submission RouterTarget::submit(const std::string& shard_key,
                                        const serve::RssiVector& rssi,
                                        const engine::SubmitOptions& options) {
  return router_.submit(shard_key, rssi, options);
}

std::optional<std::uint64_t> RouterTarget::open_session(const std::string& shard_key,
                                                        const geo::Point2& start) {
  std::optional<fleet::FleetSession> session = router_.open_session(shard_key, start);
  if (!session.has_value()) return std::nullopt;
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t handle = next_session_++;
  sessions_.emplace(handle, std::move(*session));
  return handle;
}

engine::Submission RouterTarget::track(std::uint64_t session, serve::ImuSegment segment,
                                       const engine::SubmitOptions& options) {
  fleet::FleetSession sticky;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = sessions_.find(session);
    if (it == sessions_.end()) {
      engine::Submission out;
      out.status = engine::SubmitStatus::kNoSession;
      return out;
    }
    sticky = it->second;  // copy: track() runs outside the handle lock
  }
  return router_.track(sticky, std::move(segment), options);
}

bool RouterTarget::close_session(std::uint64_t session) {
  fleet::FleetSession sticky;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = sessions_.find(session);
    if (it == sessions_.end()) return false;
    sticky = it->second;
    sessions_.erase(it);
  }
  return router_.close_session(sticky);
}

/// One gateway connection of a SocketTarget: a full-duplex FrameSocket, the
/// per-request promise table, and the reader thread that resolves it from
/// response frames (which arrive in completion order, not submission order).
struct SocketTarget::Conn {
  explicit Conn(gateway::FrameSocket socket) : sock(std::move(socket)) {}

  gateway::FrameSocket sock;
  std::mutex send_mu;  ///< whole frames only: senders serialize here
  std::atomic<std::uint64_t> next_request_id{1};

  std::mutex pending_mu;  ///< guards the three waiter tables
  std::unordered_map<std::uint64_t, std::promise<serve::Fix>> fix_waiters;
  std::unordered_map<std::uint64_t,
                     std::promise<std::pair<gateway::wire::Status, std::uint64_t>>>
      open_waiters;
  std::unordered_map<std::uint64_t, std::promise<gateway::wire::Status>> close_waiters;

  std::atomic<bool> dead{false};
  std::thread reader;

  void start_reader() {
    reader = std::thread([this] { read_loop(); });
  }

  void read_loop() {
    using gateway::wire::MsgType;
    using gateway::wire::Status;
    while (std::optional<gateway::wire::Frame> frame = sock.recv_frame(-1)) {
      switch (frame->type.as<MsgType>()) {
        case MsgType::kFix: {
          Status status = Status::kStopped;
          serve::Fix fix;
          const bool decoded =
              gateway::wire::decode_fix_body(frame->body, status, fix);
          std::promise<serve::Fix> waiter;
          {
            std::lock_guard<std::mutex> lock(pending_mu);
            const auto it = fix_waiters.find(frame->request_id);
            if (it == fix_waiters.end()) break;  // sync caller gave up; drop
            waiter = std::move(it->second);
            fix_waiters.erase(it);
          }
          if (decoded && status == Status::kOk) {
            waiter.set_value(fix);
          } else {
            // The shared status table maps every non-kOk wire status to the
            // exception the report counters expect (kDeadlineExpired ->
            // engine::DeadlineExpired, the rest -> WireRejected).
            waiter.set_exception(gateway::wire::rejection_exception(
                decoded ? status : Status::kStopped));
          }
          break;
        }
        case MsgType::kSessionOpened: {
          Status status = Status::kStopped;
          std::uint64_t wire_id = 0;
          if (!gateway::wire::decode_session_opened_body(frame->body, status, wire_id)) {
            status = Status::kStopped;
            wire_id = 0;
          }
          std::lock_guard<std::mutex> lock(pending_mu);
          const auto it = open_waiters.find(frame->request_id);
          if (it != open_waiters.end()) {
            it->second.set_value({status, wire_id});
            open_waiters.erase(it);
          }
          break;
        }
        case MsgType::kSessionClosed: {
          Status status = Status::kStopped;
          (void)gateway::wire::decode_status_body(frame->body, status);
          std::lock_guard<std::mutex> lock(pending_mu);
          const auto it = close_waiters.find(frame->request_id);
          if (it != close_waiters.end()) {
            it->second.set_value(status);
            close_waiters.erase(it);
          }
          break;
        }
        default:
          // kError (the server is about to hang up) or a type this harness
          // never requests: nothing sane can follow.
          fail_all();
          return;
      }
    }
    fail_all();  // EOF / hard error: every outstanding request is lost
  }

  /// Fails every outstanding promise — connection is gone.
  void fail_all() {
    dead.store(true, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(pending_mu);
    const auto lost =
        std::make_exception_ptr(WireRejected(gateway::wire::Status::kStopped));
    for (auto& [id, waiter] : fix_waiters) waiter.set_exception(lost);
    for (auto& [id, waiter] : open_waiters) {
      waiter.set_value({gateway::wire::Status::kStopped, 0});
    }
    for (auto& [id, waiter] : close_waiters) {
      waiter.set_value(gateway::wire::Status::kStopped);
    }
    fix_waiters.clear();
    open_waiters.clear();
    close_waiters.clear();
  }

  ~Conn() {
    sock.shutdown_both();  // unparks the reader (it observes EOF)
    if (reader.joinable()) reader.join();
  }
};

std::unique_ptr<SocketTarget> SocketTarget::connect(const std::string& host,
                                                    std::uint16_t port,
                                                    std::size_t connections) {
  auto target = std::unique_ptr<SocketTarget>(new SocketTarget());
  for (std::size_t i = 0; i < std::max<std::size_t>(1, connections); ++i) {
    std::optional<gateway::FrameSocket> sock = gateway::connect_socket(host, port);
    if (!sock.has_value()) return nullptr;
    target->conns_.push_back(std::make_unique<Conn>(std::move(*sock)));
    target->conns_.back()->start_reader();
  }
  return target;
}

SocketTarget::~SocketTarget() = default;

SocketTarget::Conn& SocketTarget::pick_conn() {
  const std::uint64_t n = next_conn_.fetch_add(1, std::memory_order_relaxed);
  return *conns_[n % conns_.size()];
}

namespace {

/// Header deadline for SubmitOptions: relative budget in us, 0 = none. An
/// already-lapsed absolute deadline becomes the minimum budget (1 us) so the
/// server still expires it — the client clock never decides.
std::uint64_t wire_deadline_us(const engine::SubmitOptions& options) {
  if (!options.deadline.has_value()) return 0;
  const auto left = std::chrono::duration_cast<std::chrono::microseconds>(
      *options.deadline - std::chrono::steady_clock::now());
  return left.count() > 0 ? static_cast<std::uint64_t>(left.count()) : 1;
}

}  // namespace

engine::Submission SocketTarget::submit(const std::string& shard_key,
                                        const serve::RssiVector& rssi,
                                        const engine::SubmitOptions& options) {
  Conn& conn = pick_conn();
  engine::Submission out;
  if (conn.dead.load(std::memory_order_relaxed)) return out;  // kStopped
  gateway::wire::Frame frame;
  frame.type = gateway::wire::MsgType::kLocate;
  frame.request_id = conn.next_request_id.fetch_add(1, std::memory_order_relaxed);
  frame.cls = options.request_class;
  frame.deadline_us = wire_deadline_us(options);
  frame.body = gateway::wire::encode_locate_body(shard_key, rssi);
  std::promise<serve::Fix> promise;
  out.result = promise.get_future();
  {
    std::lock_guard<std::mutex> lock(conn.pending_mu);
    conn.fix_waiters.emplace(frame.request_id, std::move(promise));
  }
  bool sent;
  {
    std::lock_guard<std::mutex> lock(conn.send_mu);
    sent = conn.sock.send_frame(frame);
  }
  if (!sent) {
    std::lock_guard<std::mutex> lock(conn.pending_mu);
    conn.fix_waiters.erase(frame.request_id);
    out.result = std::future<serve::Fix>();
    return out;  // kStopped
  }
  // Optimistic: the frame is on the wire. A server-side rejection comes
  // back through the future as WireRejected — there is no admission
  // verdict a pipelined client could wait for without serializing.
  out.status = engine::SubmitStatus::kAccepted;
  return out;
}

std::optional<std::uint64_t> SocketTarget::open_session(const std::string& shard_key,
                                                        const geo::Point2& start) {
  const std::size_t conn_index =
      next_conn_.fetch_add(1, std::memory_order_relaxed) % conns_.size();
  Conn& conn = *conns_[conn_index];
  if (conn.dead.load(std::memory_order_relaxed)) return std::nullopt;
  gateway::wire::Frame frame;
  frame.type = gateway::wire::MsgType::kOpenSession;
  frame.request_id = conn.next_request_id.fetch_add(1, std::memory_order_relaxed);
  frame.body = gateway::wire::encode_open_session_body(shard_key, start);
  std::promise<std::pair<gateway::wire::Status, std::uint64_t>> promise;
  std::future<std::pair<gateway::wire::Status, std::uint64_t>> reply =
      promise.get_future();
  {
    std::lock_guard<std::mutex> lock(conn.pending_mu);
    conn.open_waiters.emplace(frame.request_id, std::move(promise));
  }
  bool sent;
  {
    std::lock_guard<std::mutex> lock(conn.send_mu);
    sent = conn.sock.send_frame(frame);
  }
  if (!sent) {
    std::lock_guard<std::mutex> lock(conn.pending_mu);
    conn.open_waiters.erase(frame.request_id);
    return std::nullopt;
  }
  const auto [status, wire_id] = reply.get();
  if (status != gateway::wire::Status::kOk) return std::nullopt;
  std::lock_guard<std::mutex> lock(session_mu_);
  const std::uint64_t handle = next_session_key_++;
  sessions_.emplace(handle, SessionRef{conn_index, wire_id});
  return handle;
}

engine::Submission SocketTarget::track(std::uint64_t session, serve::ImuSegment segment,
                                       const engine::SubmitOptions& options) {
  SessionRef ref;
  {
    std::lock_guard<std::mutex> lock(session_mu_);
    const auto it = sessions_.find(session);
    if (it == sessions_.end()) {
      engine::Submission out;
      out.status = engine::SubmitStatus::kNoSession;
      return out;
    }
    ref = it->second;
  }
  Conn& conn = *conns_[ref.conn];  // sticky: session FIFO rides one socket
  engine::Submission out;
  if (conn.dead.load(std::memory_order_relaxed)) return out;  // kStopped
  gateway::wire::Frame frame;
  frame.type = gateway::wire::MsgType::kTrackUpdate;
  frame.request_id = conn.next_request_id.fetch_add(1, std::memory_order_relaxed);
  frame.cls = options.request_class;
  frame.deadline_us = wire_deadline_us(options);
  frame.body = gateway::wire::encode_track_body(ref.wire_id, segment);
  std::promise<serve::Fix> promise;
  out.result = promise.get_future();
  {
    std::lock_guard<std::mutex> lock(conn.pending_mu);
    conn.fix_waiters.emplace(frame.request_id, std::move(promise));
  }
  bool sent;
  {
    std::lock_guard<std::mutex> lock(conn.send_mu);
    sent = conn.sock.send_frame(frame);
  }
  if (!sent) {
    std::lock_guard<std::mutex> lock(conn.pending_mu);
    conn.fix_waiters.erase(frame.request_id);
    out.result = std::future<serve::Fix>();
    return out;  // kStopped
  }
  out.status = engine::SubmitStatus::kAccepted;
  return out;
}

bool SocketTarget::close_session(std::uint64_t session) {
  SessionRef ref;
  {
    std::lock_guard<std::mutex> lock(session_mu_);
    const auto it = sessions_.find(session);
    if (it == sessions_.end()) return false;
    ref = it->second;
    sessions_.erase(it);
  }
  Conn& conn = *conns_[ref.conn];
  if (conn.dead.load(std::memory_order_relaxed)) return false;
  gateway::wire::Frame frame;
  frame.type = gateway::wire::MsgType::kCloseSession;
  frame.request_id = conn.next_request_id.fetch_add(1, std::memory_order_relaxed);
  frame.body = gateway::wire::encode_close_session_body(ref.wire_id);
  std::promise<gateway::wire::Status> promise;
  std::future<gateway::wire::Status> reply = promise.get_future();
  {
    std::lock_guard<std::mutex> lock(conn.pending_mu);
    conn.close_waiters.emplace(frame.request_id, std::move(promise));
  }
  bool sent;
  {
    std::lock_guard<std::mutex> lock(conn.send_mu);
    sent = conn.sock.send_frame(frame);
  }
  if (!sent) {
    std::lock_guard<std::mutex> lock(conn.pending_mu);
    conn.close_waiters.erase(frame.request_id);
    return false;
  }
  return reply.get() == gateway::wire::Status::kOk;
}

gateway::GatewayConfig gateway_config_from_env(gateway::GatewayConfig defaults) {
  EnvConfig env;
  return env.gateway(std::move(defaults));
}

std::string describe_gateway_config(const gateway::GatewayConfig& cfg) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "bind %s:%u (0 = ephemeral), %zu handler threads, "
                "inflight window %zu, max frame %zu B",
                cfg.bind_address.c_str(), static_cast<unsigned>(cfg.port),
                cfg.threads, cfg.inflight_window, cfg.max_frame_bytes);
  return buffer;
}

// --- open-loop load ----------------------------------------------------------

namespace {

/// One submitted-and-unsettled request traveling from the dispatcher to the
/// settler pool.
struct OpenLoopInflight {
  std::size_t traffic = 0;  ///< 0 interactive, 1 bulk, 2 session
  LoadClock::time_point submitted_at;
  std::future<noble::serve::Fix> result;
};

}  // namespace

OpenLoopReport run_open_loop(LoadTarget& target,
                             const std::vector<std::string>& shard_keys,
                             const std::vector<serve::RssiVector>& queries,
                             const std::vector<serve::ImuSegment>& segments,
                             const std::vector<geo::Point2>& session_starts,
                             const OpenLoopConfig& cfg) {
  OpenLoopReport report;
  report.offered_qps = cfg.offered_qps;
  if (shard_keys.empty() || queries.empty() || cfg.offered_qps <= 0.0 ||
      cfg.seconds <= 0.0) {
    return report;
  }

  // Sticky session pool, opened before the clock starts. Session traffic is
  // silently disabled when there is nothing to stream or opens are refused
  // (shard without an IMU model) — the scan mix still runs.
  std::vector<std::uint64_t> session_pool;
  if (cfg.session_fraction > 0.0 && !segments.empty() && !session_starts.empty()) {
    for (std::size_t s = 0; s < cfg.sessions; ++s) {
      const std::optional<std::uint64_t> handle =
          target.open_session(shard_keys[s % shard_keys.size()],
                              session_starts[s % session_starts.size()]);
      if (handle.has_value()) session_pool.push_back(*handle);
    }
  }
  const double session_fraction = session_pool.empty() ? 0.0 : cfg.session_fraction;

  // Dispatcher -> settler queue. Settling is decoupled from dispatch so a
  // slow fix never delays the Poisson schedule (the whole point of open
  // loop); outstanding counts in-queue plus in-settle requests.
  std::mutex queue_mu;
  std::condition_variable queue_cv;
  std::deque<OpenLoopInflight> queue;
  bool done = false;
  std::atomic<std::size_t> outstanding{0};

  std::vector<std::vector<ClassLoadReport>> settled(
      std::max<std::size_t>(1, cfg.settlers));
  for (auto& per_thread : settled) per_thread.resize(3);

  std::vector<std::thread> settlers;
  settlers.reserve(settled.size());
  for (std::size_t t = 0; t < settled.size(); ++t) {
    settlers.emplace_back([&, t] {
      for (;;) {
        OpenLoopInflight item;
        {
          std::unique_lock<std::mutex> lock(queue_mu);
          queue_cv.wait(lock, [&] { return done || !queue.empty(); });
          if (queue.empty()) return;  // done && drained
          item = std::move(queue.front());
          queue.pop_front();
        }
        settle(settled[t][item.traffic], item.submitted_at, item.result);
        outstanding.fetch_sub(1, std::memory_order_relaxed);
      }
    });
  }

  // The dispatcher: exponential inter-arrival gaps at offered_qps. Arrivals
  // fire on the schedule whether or not earlier requests finished — lag
  // between the schedule and the actual send is tracked as max_send_lag_us
  // (a large value indicts the generator, not the target).
  const bool propagate_traces = target.propagates_trace();
  Rng rng(cfg.seed);
  const auto t0 = LoadClock::now();
  const auto horizon = t0 + std::chrono::duration_cast<LoadClock::duration>(
                                std::chrono::duration<double>(cfg.seconds));
  std::chrono::duration<double> schedule{0.0};
  std::uint64_t arrival = 0;
  ClassLoadReport drop_counts[3];

  for (;;) {
    schedule += std::chrono::duration<double>(
        -std::log(std::max(1e-12, rng.uniform())) / cfg.offered_qps);
    const auto due = t0 + std::chrono::duration_cast<LoadClock::duration>(schedule);
    if (due >= horizon) break;
    std::this_thread::sleep_until(due);
    const auto now = LoadClock::now();
    report.max_send_lag_us = std::max(
        report.max_send_lag_us,
        std::chrono::duration<double, std::micro>(now - due).count());
    ++report.arrivals;

    // Draw the traffic type: [0, bulk) bulk, [bulk, bulk+session) session,
    // rest interactive.
    const double draw = rng.uniform();
    std::size_t traffic = 0;
    if (draw < cfg.bulk_fraction) {
      traffic = 1;
    } else if (draw < cfg.bulk_fraction + session_fraction) {
      traffic = 2;
    }

    if (outstanding.load(std::memory_order_relaxed) >= cfg.max_outstanding) {
      ++report.dropped;
      ++drop_counts[traffic].attempted;  // offered, never submitted
      continue;
    }

    OpenLoopInflight item;
    item.traffic = traffic;
    ++drop_counts[traffic].attempted;
    item.submitted_at = LoadClock::now();
    // In-process targets get their stage clock here (over the wire the
    // gateway starts it at frame decode). The engine finishes the trace —
    // external_respond stays false — so the dispatcher never blocks on it.
    const bool trace_here = propagate_traces && obs::Tracer::global().enabled();
    engine::Submission s;
    if (traffic == 2) {
      engine::SubmitOptions options;
      if (trace_here && (options.trace = obs::Tracer::global().start(arrival))) {
        options.trace->stamp(obs::Mark::kSubmit);
      }
      const std::uint64_t session = session_pool[arrival % session_pool.size()];
      s = target.track(session, segments[arrival % segments.size()], options);
    } else {
      engine::SubmitOptions options;
      if (traffic == 1) {
        options = engine::SubmitOptions::bulk();
        if (cfg.bulk_deadline_us > 0) options.expires_in_us(cfg.bulk_deadline_us);
      }
      if (trace_here && (options.trace = obs::Tracer::global().start(arrival))) {
        options.trace->stamp(obs::Mark::kSubmit);
      }
      s = target.submit(shard_keys[arrival % shard_keys.size()],
                        queries[arrival % queries.size()], options);
    }
    ++arrival;
    if (s.accepted()) {
      ++drop_counts[traffic].accepted;
      item.result = std::move(s.result);
      outstanding.fetch_add(1, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(queue_mu);
        queue.push_back(std::move(item));
      }
      queue_cv.notify_one();
    } else if (s.status == engine::SubmitStatus::kExpired) {
      ++drop_counts[traffic].expired;
    } else {
      ++drop_counts[traffic].rejected;
    }
  }

  {
    std::lock_guard<std::mutex> lock(queue_mu);
    done = true;
  }
  queue_cv.notify_all();
  for (std::thread& settler : settlers) settler.join();
  report.wall_seconds = std::chrono::duration<double>(LoadClock::now() - t0).count();

  for (std::uint64_t session : session_pool) target.close_session(session);

  ClassLoadReport* const classes[3] = {&report.interactive, &report.bulk,
                                       &report.session};
  for (std::size_t traffic = 0; traffic < 3; ++traffic) {
    merge_class_report(*classes[traffic], drop_counts[traffic]);
    for (const auto& per_thread : settled) {
      merge_class_report(*classes[traffic], per_thread[traffic]);
    }
  }
  if (report.wall_seconds > 0.0) {
    report.achieved_qps =
        static_cast<double>(report.interactive.completed + report.bulk.completed +
                            report.session.completed) /
        report.wall_seconds;
  }
  return report;
}

OpenLoopConfig open_loop_config_from_env(OpenLoopConfig defaults) {
  EnvConfig env;
  return env.open_loop(defaults);
}

std::string describe_open_loop_config(const OpenLoopConfig& cfg) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "offered %.0f qps (NOBLE_LOAD_QPS) for %.1f s "
                "(NOBLE_LOAD_SECONDS), mix %.0f%% bulk / %.0f%% session, "
                "%zu sessions, bulk deadline %llu us, %zu settlers",
                cfg.offered_qps, cfg.seconds, 100.0 * cfg.bulk_fraction,
                100.0 * cfg.session_fraction, cfg.sessions,
                static_cast<unsigned long long>(cfg.bulk_deadline_us),
                cfg.settlers);
  return buffer;
}

void print_open_loop_row(const OpenLoopReport& report) {
  const LatencySummary interactive = summarize_latency_us(report.interactive.latency_us);
  const LatencySummary bulk = summarize_latency_us(report.bulk.latency_us);
  const LatencySummary session = summarize_latency_us(report.session.latency_us);
  const std::uint64_t shed = report.interactive.rejected + report.bulk.rejected +
                             report.session.rejected + report.dropped;
  const std::uint64_t expired =
      report.interactive.expired + report.bulk.expired + report.session.expired;
  std::printf("  %8.0f %9.1f   %9.1f %9.1f | %9.1f %9.1f | %9.1f %9.1f   "
              "%7llu %7llu   %8.0f\n",
              report.offered_qps, report.achieved_qps, interactive.p50_us,
              interactive.p99_us, bulk.p50_us, bulk.p99_us, session.p50_us,
              session.p99_us, static_cast<unsigned long long>(shed),
              static_cast<unsigned long long>(expired), report.max_send_lag_us);
}

void print_class_load_row(const std::string& label, const ClassLoadReport& report) {
  const LatencySummary latency = summarize_latency_us(report.latency_us);
  std::printf("  %-14s %8llu attempted  %8llu ok  %7llu shed  %7llu expired   "
              "p50 %8.1f us   p95 %8.1f us   p99 %8.1f us\n",
              label.c_str(), static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.completed),
              static_cast<unsigned long long>(report.rejected),
              static_cast<unsigned long long>(report.expired),
              latency.p50_us, latency.p95_us, latency.p99_us);
}

std::string artifact_path(const std::string& filename) {
  return env_string("NOBLE_BENCH_OUT", ".") + "/" + filename;
}

}  // namespace noble::bench
