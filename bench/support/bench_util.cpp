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

namespace wire = gateway::wire;

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
                "%zu workers, max_batch %zu, max_wait %llu us, queue_cap %zu "
                "(class caps %zu:%zu), deadline %llu us, backend %s, kernel %s",
                cfg.workers, cfg.max_batch,
                static_cast<unsigned long long>(cfg.max_wait_us), cfg.queue_cap,
                cfg.interactive_cap, cfg.bulk_cap,
                static_cast<unsigned long long>(cfg.default_deadline_us),
                engine::precision_name(cfg.precision).data(),
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
    if (rejected.status == wire::Status::kDeadlineExpired ||
        rejected.status == wire::Status::kExpired) {
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
      for (std::size_t r = 0; r < cfg.interactive_requests; ++r) {
        const auto& q = queries[(c * 7919 + r) % queries.size()];
        const std::string& key = shard_keys[(c + r) % shard_keys.size()];
        ++mine.attempted;
        const auto submitted_at = LoadClock::now();
        engine::Submission s = target.submit(key, q, {});
        if (s.accepted()) {
          ++mine.accepted;
          settle(mine, submitted_at, s.result);
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

std::unique_ptr<SocketTarget> SocketTarget::connect(const std::string& host,
                                                    std::uint16_t port,
                                                    std::size_t connections) {
  auto target = std::unique_ptr<SocketTarget>(new SocketTarget());
  for (std::size_t i = 0; i < std::max<std::size_t>(1, connections); ++i) {
    std::optional<gateway::FrameSocket> sock = gateway::connect_socket(host, port);
    if (!sock.has_value()) return nullptr;
    target->conns_.push_back(std::make_unique<net::Channel>(std::move(*sock)));
  }
  return target;
}

SocketTarget::~SocketTarget() = default;

std::size_t SocketTarget::pick_conn() {
  return next_conn_.fetch_add(1, std::memory_order_relaxed) % conns_.size();
}

engine::Submission SocketTarget::call_fix(std::size_t conn, wire::Frame frame,
                                          const engine::SubmitOptions& options) {
  wire::stamp_submit_options(options, frame);
  auto waiter = std::make_shared<std::promise<serve::Fix>>();
  engine::Submission out;
  // No client-side deadline on the call: the gateway's verdict is the one
  // the wire rows compare against in-process rows, where a request the
  // engine started in time is answered however late it finishes.
  const bool sent = conns_[conn]->call(
      std::move(frame), std::nullopt,
      [waiter](net::Channel::Outcome outcome, wire::Frame reply) {
        serve::Fix fix;
        const wire::Status status =
            wire::decode_fix_reply(outcome, reply, wire::MsgType::kFix, fix);
        wire::settle_fix(*waiter, status, fix);
      });
  if (!sent) return out;  // kStopped
  // Optimistic: the frame is on the wire. A server-side rejection comes
  // back through the future as WireRejected — there is no admission
  // verdict a pipelined client could wait for without serializing.
  out.status = engine::SubmitStatus::kAccepted;
  out.result = waiter->get_future();
  return out;
}

std::optional<wire::Frame> SocketTarget::round_trip(std::size_t conn, wire::Frame frame) {
  auto waiter = std::make_shared<std::promise<std::optional<wire::Frame>>>();
  std::future<std::optional<wire::Frame>> reply = waiter->get_future();
  const bool sent = conns_[conn]->call(
      std::move(frame), std::nullopt,
      [waiter](net::Channel::Outcome outcome, wire::Frame answer) {
        waiter->set_value(outcome == net::Channel::Outcome::kReply
                              ? std::optional<wire::Frame>(std::move(answer))
                              : std::nullopt);
      });
  if (!sent) return std::nullopt;
  return reply.get();
}

engine::Submission SocketTarget::submit(const std::string& shard_key,
                                        const serve::RssiVector& rssi,
                                        const engine::SubmitOptions& options) {
  wire::Frame frame;
  frame.type = wire::MsgType::kLocate;
  frame.body = wire::encode_locate_body(shard_key, rssi);
  return call_fix(pick_conn(), std::move(frame), options);
}

std::optional<std::uint64_t> SocketTarget::open_session(const std::string& shard_key,
                                                        const geo::Point2& start) {
  const std::size_t conn = pick_conn();
  wire::Frame frame;
  frame.type = wire::MsgType::kOpenSession;
  frame.body = wire::encode_open_session_body(shard_key, start);
  const std::optional<wire::Frame> reply = round_trip(conn, std::move(frame));
  wire::Status status = wire::Status::kStopped;
  std::uint64_t wire_id = 0;
  if (!reply || reply->type != wire::MsgType::kSessionOpened ||
      !wire::decode_session_opened_body(reply->body, status, wire_id) ||
      status != wire::Status::kOk) {
    return std::nullopt;
  }
  std::lock_guard<std::mutex> lock(session_mu_);
  const std::uint64_t handle = next_session_key_++;
  sessions_.emplace(handle, SessionRef{conn, wire_id});
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
  wire::Frame frame;
  frame.type = wire::MsgType::kTrackUpdate;
  frame.body = wire::encode_track_body(ref.wire_id, segment);
  // Sticky: the session's updates ride one connection, keeping its FIFO.
  return call_fix(ref.conn, std::move(frame), options);
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
  wire::Frame frame;
  frame.type = wire::MsgType::kCloseSession;
  frame.body = wire::encode_close_session_body(ref.wire_id);
  const std::optional<wire::Frame> reply = round_trip(ref.conn, std::move(frame));
  wire::Status status = wire::Status::kStopped;
  return reply && reply->type == wire::MsgType::kSessionClosed &&
         wire::decode_status_body(reply->body, status) && status == wire::Status::kOk;
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
