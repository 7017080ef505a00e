#include "engine/engine.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace noble::engine {

namespace {

/// Calls the SubmitOptions::notify of every request in `settled`, after all
/// of them are settled: a waiting edge wakes once per batch, not once per
/// set_value.
template <typename Settled>
void notify_settled(Settled& settled) {
  for (auto& request : settled) {
    if (request.notify) request.notify();
  }
}

}  // namespace

Engine::Engine(const serve::WifiLocalizer& wifi, EngineConfig config)
    : Engine(std::make_unique<PlanBackend>(wifi, config.precision), config) {}

Engine::Engine(std::unique_ptr<WifiBackend> prototype, EngineConfig config)
    : config_(config),
      queue_(config.queue_cap, std::min(config.bulk_cap, config.queue_cap)) {
  NOBLE_EXPECTS(prototype != nullptr);
  NOBLE_EXPECTS(config_.workers >= 1);
  NOBLE_EXPECTS(config_.max_batch >= 1);
  NOBLE_EXPECTS(config_.session_backlog >= 1);
  // One replica per worker; clones share only immutable state (the
  // localizer and its packed plan), so the batched hot path takes no locks.
  replicas_.reserve(config_.workers);
  replicas_.push_back(std::move(prototype));
  for (std::size_t i = 1; i < config_.workers; ++i) {
    replicas_.push_back(replicas_.front()->clone());
  }
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

Engine::Engine(const serve::WifiLocalizer& wifi, const serve::ImuLocalizer& imu,
               EngineConfig config)
    : Engine(wifi, config) {
  // Safe after delegation: workers only touch imu_ via session tokens, and
  // no session can be opened before this constructor returns.
  imu_.emplace(serve::ImuLocalizer::from_model(imu.tracker()));
}

Engine::~Engine() { shutdown(); }

void Engine::shutdown() {
  stopped_.store(true);
  queue_.close();
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void Engine::expire_promise(std::promise<serve::Fix>& promise, RequestClass cls) {
  class_expired_[request_class_index(cls)].inc();
  promise.set_exception(std::make_exception_ptr(DeadlineExpired{}));
}

Submission Engine::submit(const serve::RssiVector& rssi, const SubmitOptions& options) {
  const std::size_t cls = request_class_index(options.request_class);
  if (rssi.size() != num_aps()) {
    class_rejected_[cls].inc();
    return {SubmitStatus::kBadDimension, {}};
  }
  const Clock::time_point submitted_at = Clock::now();
  if (options.deadline.has_value() && *options.deadline <= submitted_at) {
    // Dead on arrival: never admitted, never copied, never a GEMM slot.
    class_expired_[cls].inc();
    return {SubmitStatus::kExpired, {}};
  }
  // The only copy, on admission.
  WifiRequest request{rssi, {}, submitted_at, options.request_class, options.trace,
                      options.notify};
  std::future<serve::Fix> result = request.promise.get_future();
  // Counted before the push: once the queue has the request a worker may
  // complete it immediately, and stats() must never observe
  // completed > submitted.
  class_accepted_[cls].inc();
  // Stamped before the push: after it, a worker may already own the trace
  // (the queue handoff is the happens-before edge for the later marks).
  if (options.trace != nullptr) options.trace->stamp(obs::Mark::kAdmitted);
  const PushResult pushed =
      queue_.try_push(Request{std::move(request)}, options.request_class,
                      options.deadline);
  if (pushed != PushResult::kOk) {
    class_accepted_[cls].sub();
    class_rejected_[cls].inc();
    return {pushed == PushResult::kClosed ? SubmitStatus::kStopped
                                          : SubmitStatus::kQueueFull,
            {}};
  }
  return {SubmitStatus::kAccepted, std::move(result)};
}

std::optional<SessionId> Engine::open_session(const geo::Point2& start) {
  if (!imu_.has_value() || stopped_.load()) return std::nullopt;
  const SessionId id = next_session_.fetch_add(1);
  auto state = std::make_shared<SessionState>(imu_->start_session(start));
  std::lock_guard<std::mutex> lock(sessions_mu_);
  sessions_.emplace(id, std::move(state));
  return id;
}

Submission Engine::track(SessionId session, serve::ImuSegment segment,
                         const SubmitOptions& options) {
  const std::size_t cls = request_class_index(options.request_class);
  std::shared_ptr<SessionState> state;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    const auto it = sessions_.find(session);
    if (it != sessions_.end()) state = it->second;
  }
  if (state == nullptr) {
    class_rejected_[cls].inc();
    return {SubmitStatus::kNoSession, {}};
  }
  if (segment.size() != imu_->segment_dim()) {
    class_rejected_[cls].inc();
    return {SubmitStatus::kBadDimension, {}};
  }
  const Clock::time_point submitted_at = Clock::now();
  if (options.deadline.has_value() && *options.deadline <= submitted_at) {
    class_expired_[cls].inc();
    return {SubmitStatus::kExpired, {}};
  }

  std::lock_guard<std::mutex> lock(state->mu);
  if (state->closed) {
    class_rejected_[cls].inc();
    return {SubmitStatus::kNoSession, {}};
  }
  if (state->pending.size() >= config_.session_backlog) {
    class_rejected_[cls].inc();
    return {SubmitStatus::kQueueFull, {}};
  }
  PendingUpdate update{std::move(segment), {}, submitted_at, options.request_class,
                       options.deadline, options.trace, options.notify};
  std::future<serve::Fix> result = update.promise.get_future();
  // Same ordering as submit(): count before the work can become visible to
  // a worker, roll back on rejection. Admission for a session update means
  // entering its FIFO (the session mutex is the handoff edge).
  class_accepted_[cls].inc();
  if (options.trace != nullptr) options.trace->stamp(obs::Mark::kAdmitted);
  state->pending.push_back(std::move(update));
  if (!state->scheduled) {
    // Session tokens carry the class of the update that scheduled them (so
    // a bulk sweep's token queues behind interactive traffic) but never a
    // deadline — per-update deadlines are enforced in drain_sessions.
    const PushResult pushed =
        queue_.try_push(Request{SessionWork{session}}, options.request_class);
    if (pushed != PushResult::kOk) {
      state->pending.pop_back();
      class_accepted_[cls].sub();
      class_rejected_[cls].inc();
      return {pushed == PushResult::kClosed ? SubmitStatus::kStopped
                                            : SubmitStatus::kQueueFull,
              {}};
    }
    state->scheduled = true;
  }
  return {SubmitStatus::kAccepted, std::move(result)};
}

bool Engine::close_session(SessionId session) {
  std::shared_ptr<SessionState> state;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    const auto it = sessions_.find(session);
    if (it == sessions_.end()) return false;
    state = std::move(it->second);
    sessions_.erase(it);
  }
  std::deque<PendingUpdate> dropped;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->closed = true;
    dropped.swap(state->pending);
  }
  for (PendingUpdate& pending : dropped) {
    pending.promise.set_exception(std::make_exception_ptr(
        std::runtime_error("noble::engine: session closed with pending updates")));
  }
  notify_settled(dropped);
  return true;
}

EngineStats Engine::stats() const {
  EngineStats snapshot;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    snapshot.batch_size = batch_hist_;
    snapshot.imu_batch_size = imu_batch_hist_;
    snapshot.queue_wait_us = queue_wait_hist_;
    snapshot.assembly_us = assembly_hist_;
    snapshot.interactive.latency_us = class_latency_[0];
    snapshot.bulk.latency_us = class_latency_[1];
  }
  // The total latency view is exactly the per-class histograms merged —
  // every completion is recorded in exactly one class.
  snapshot.latency_us = snapshot.interactive.latency_us;
  snapshot.latency_us.merge(snapshot.bulk.latency_us);
  snapshot.completed = snapshot.latency_us.count();
  snapshot.batches = snapshot.batch_size.count();
  snapshot.imu_batches = snapshot.imu_batch_size.count();
  // Read after the histograms: every completion was counted in its class's
  // accepted counter first, so this order keeps submitted >= completed.
  for (const RequestClass cls : {RequestClass::kInteractive, RequestClass::kBulk}) {
    const std::size_t i = request_class_index(cls);
    ClassStats& split = cls == RequestClass::kInteractive ? snapshot.interactive
                                                          : snapshot.bulk;
    split.accepted = class_accepted_[i].value();
    split.rejected = class_rejected_[i].value();
    split.expired = class_expired_[i].value();
    snapshot.submitted += split.accepted;
    snapshot.rejected += split.rejected;
    snapshot.expired += split.expired;
  }
  snapshot.set_queue_depths(queue_.depth(RequestClass::kInteractive),
                            queue_.depth(RequestClass::kBulk));
  snapshot.batch_wait_us = config_.max_wait_us;
  return snapshot;
}

void ClassStats::merge(const ClassStats& other) {
  accepted += other.accepted;
  rejected += other.rejected;
  expired += other.expired;
  queue_depth += other.queue_depth;
  latency_us.merge(other.latency_us);
}

void EngineStats::set_queue_depths(std::size_t interactive_depth,
                                   std::size_t bulk_depth) {
  interactive.queue_depth = interactive_depth;
  bulk.queue_depth = bulk_depth;
  queue_depth = interactive_depth + bulk_depth;
}

void EngineStats::merge(const EngineStats& other) {
  submitted += other.submitted;
  rejected += other.rejected;
  expired += other.expired;
  completed += other.completed;
  batches += other.batches;
  imu_batches += other.imu_batches;
  queue_depth += other.queue_depth;
  batch_wait_us = std::max(batch_wait_us, other.batch_wait_us);
  batch_size.merge(other.batch_size);
  imu_batch_size.merge(other.imu_batch_size);
  queue_wait_us.merge(other.queue_wait_us);
  assembly_us.merge(other.assembly_us);
  latency_us.merge(other.latency_us);
  interactive.merge(other.interactive);
  bulk.merge(other.bulk);
}

void Engine::worker_loop(std::size_t worker_index) {
  const WifiBackend& replica = *replicas_[worker_index];
  for (;;) {
    std::vector<Request> expired;
    std::vector<Request> batch = queue_.pop_batch(
        config_.max_batch, std::chrono::microseconds(config_.max_wait_us), &expired);
    if (batch.empty() && expired.empty()) return;  // closed and fully drained
    // One clock read marks kDequeued for every trace in this batch.
    const std::uint64_t dequeued_ns = obs::Trace::now_ns();
    // Deadline-expired takes never reach a replica: fail their futures and
    // move on — the batch slots went to live requests instead. Their
    // notifiers fire now, before the live batch computes.
    std::vector<WifiRequest> lapsed;
    for (Request& request : expired) {
      if (auto* query = std::get_if<WifiRequest>(&request)) {
        expire_promise(query->promise, query->cls);
        lapsed.push_back(std::move(*query));
      } else {
        // Tokens are pushed without deadlines; treat one here as live.
        batch.push_back(std::move(request));
      }
    }
    notify_settled(lapsed);
    // Partition the takes: independent Wi-Fi queries coalesce into one
    // network pass; session tokens are drained afterwards in batched IMU
    // passes (their ordering lives in the per-session FIFO, not the shared
    // queue).
    std::vector<WifiRequest> wifi;
    std::vector<SessionId> tokens;
    for (Request& request : batch) {
      if (auto* query = std::get_if<WifiRequest>(&request)) {
        wifi.push_back(std::move(*query));
      } else {
        tokens.push_back(std::get<SessionWork>(request).id);
      }
    }
    if (!wifi.empty()) run_wifi_batch(replica, std::move(wifi), dequeued_ns);
    if (!tokens.empty()) drain_sessions(tokens, dequeued_ns);
  }
}

void Engine::run_wifi_batch(const WifiBackend& replica,
                            std::vector<WifiRequest> batch,
                            std::uint64_t dequeued_ns) {
  std::vector<serve::RssiVector> queries;
  queries.reserve(batch.size());
  for (WifiRequest& request : batch) queries.push_back(std::move(request.rssi));
  bool any_traced = false;
  // Measured queue wait per request (admit -> this pop) — always on, one
  // subtraction each: the engine-owned counterpart of the obs kQueueWait
  // stage.
  std::vector<double> waits_us;
  waits_us.reserve(batch.size());
  for (const WifiRequest& request : batch) {
    const auto submitted_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            request.submitted_at.time_since_epoch())
            .count());
    const double wait_us =
        dequeued_ns > submitted_ns ? (dequeued_ns - submitted_ns) / 1000.0 : 0.0;
    waits_us.push_back(wait_us);
    if (request.trace == nullptr) continue;
    any_traced = true;
    request.trace->stamp(obs::Mark::kDequeued, dequeued_ns);
  }
  const std::uint64_t assembled_ns = obs::Trace::now_ns();
  if (any_traced) {
    for (const WifiRequest& request : batch) {
      if (request.trace != nullptr) {
        request.trace->stamp(obs::Mark::kAssembled, assembled_ns);
      }
    }
  }
  const std::vector<serve::Fix> fixes = replica.locate_batch(queries);
  const Clock::time_point done = Clock::now();  // one read for the batch
  if (any_traced) {
    // Stamp before set_value below: the promise hands the trace to whoever
    // awaits the future, so every engine mark must land first.
    const auto done_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(done.time_since_epoch())
            .count());
    for (const WifiRequest& request : batch) {
      if (request.trace != nullptr) {
        request.trace->stamp(obs::Mark::kComputed, done_ns);
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    batch_hist_.record(static_cast<double>(batch.size()));
    assembly_hist_.record(
        assembled_ns > dequeued_ns ? (assembled_ns - dequeued_ns) / 1000.0 : 0.0);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      queue_wait_hist_.record(waits_us[i]);
      class_latency_[request_class_index(batch[i].cls)].record(
          std::chrono::duration<double, std::micro>(done - batch[i].submitted_at)
              .count());
    }
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i].promise.set_value(fixes[i]);
    if (batch[i].trace != nullptr && !batch[i].trace->external_respond) {
      // In-process serving: fulfilling the future IS the response write.
      batch[i].trace->stamp(obs::Mark::kResponded);
      obs::Tracer::global().finish(*batch[i].trace);
    }
  }
  notify_settled(batch);
}

void Engine::drain_sessions(const std::vector<SessionId>& ids,
                            std::uint64_t dequeued_ns) {
  // shared_ptr copies keep every state alive across the drain even if the
  // session is closed mid-flight (close_session only clears pending and
  // unregisters; it never touches the TrackingSession itself).
  std::vector<std::shared_ptr<SessionState>> tracks;
  tracks.reserve(ids.size());
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (const SessionId id : ids) {
      const auto it = sessions_.find(id);
      if (it == sessions_.end()) continue;  // closed while its token was queued
      tracks.push_back(it->second);
    }
  }
  // Locking: each track's mutex is taken only for the instants this loop
  // pops its next pending update or retires its token — never across the
  // batched pass. Producers therefore keep appending to the per-session
  // FIFOs while the GEMM runs (the drain pipelines against submission,
  // which is most of coalescing's engine-level win); holding every lock
  // across the drain instead was measured to convoy all submitters behind
  // the worker. Popping outside the compute is safe: one token is in
  // flight per session, so no other worker can reach these sessions, and
  // the TrackingSession object itself is only ever touched by the token
  // holder. A track retires — atomically with observing its FIFO empty —
  // by clearing `scheduled` under its mutex, after which the next track()
  // submission enqueues a fresh token (possibly for another worker; this
  // one no longer touches it).
  std::vector<char> active(tracks.size(), 1);
  std::vector<PendingUpdate> updates;
  std::vector<PendingUpdate> lapsed;
  std::vector<serve::TrackingSession*> sessions;
  std::vector<const serve::ImuSegment*> segments;
  for (;;) {
    // One round: at most one live update per session, FIFO within each
    // track, the whole round served by a single batched pass.
    updates.clear();
    lapsed.clear();
    sessions.clear();
    segments.clear();
    const Clock::time_point now = Clock::now();
    for (std::size_t t = 0; t < tracks.size(); ++t) {
      if (!active[t]) continue;
      SessionState& state = *tracks[t];
      std::lock_guard<std::mutex> lock(state.mu);
      bool took = false;
      while (!state.pending.empty()) {
        PendingUpdate update = std::move(state.pending.front());
        state.pending.pop_front();
        if (update.deadline.has_value() && *update.deadline <= now) {
          // Expired before its turn: never applied to the track, so later
          // updates see the session state without it. Its trace is dropped,
          // not finished (stage latency describes served requests), and its
          // successor gets this round's slot.
          expire_promise(update.promise, update.cls);
          lapsed.push_back(std::move(update));
          continue;
        }
        updates.push_back(std::move(update));
        sessions.push_back(&state.session);
        took = true;
        break;
      }
      if (!took) {
        state.scheduled = false;  // FIFO drained: retire this track's token
        active[t] = 0;
      }
    }
    notify_settled(lapsed);  // outside every session lock
    if (updates.empty()) break;
    const std::size_t n = updates.size();
    // Segment pointers only after the round's updates stopped moving.
    segments.reserve(n);
    for (const PendingUpdate& update : updates) segments.push_back(&update.segment);
    bool any_traced = false;
    for (const PendingUpdate& update : updates) {
      if (update.trace == nullptr) continue;
      any_traced = true;
      update.trace->stamp(obs::Mark::kDequeued, dequeued_ns);
    }
    const std::uint64_t assembled_ns = obs::Trace::now_ns();
    if (any_traced) {
      for (const PendingUpdate& update : updates) {
        if (update.trace != nullptr) {
          update.trace->stamp(obs::Mark::kAssembled, assembled_ns);
        }
      }
    }
    const std::vector<serve::Fix> fixes = imu_->update_sessions(sessions, segments);
    const Clock::time_point done = Clock::now();  // one read for the round
    if (any_traced) {
      const auto done_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              done.time_since_epoch())
              .count());
      for (const PendingUpdate& update : updates) {
        if (update.trace != nullptr) {
          update.trace->stamp(obs::Mark::kComputed, done_ns);
        }
      }
    }
    {
      // One stats lock and one clock read per round, not per update — part
      // of the per-update overhead coalescing exists to amortize.
      std::lock_guard<std::mutex> lock(stats_mu_);
      imu_batch_hist_.record(static_cast<double>(n));
      assembly_hist_.record(
          assembled_ns > dequeued_ns ? (assembled_ns - dequeued_ns) / 1000.0 : 0.0);
      for (const PendingUpdate& update : updates) {
        const double wait_us = std::max(
            0.0, std::chrono::duration<double, std::micro>(now - update.submitted_at)
                     .count());
        queue_wait_hist_.record(wait_us);
        class_latency_[request_class_index(update.cls)].record(
            std::chrono::duration<double, std::micro>(done - update.submitted_at)
                .count());
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      updates[i].promise.set_value(fixes[i]);
      if (updates[i].trace != nullptr && !updates[i].trace->external_respond) {
        updates[i].trace->stamp(obs::Mark::kResponded);
        obs::Tracer::global().finish(*updates[i].trace);
      }
    }
    notify_settled(updates);
  }
}

}  // namespace noble::engine
