#include "engine/engine.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace noble::engine {

namespace {

/// Steady-clock nanoseconds, the unit obs::Trace marks use.
std::uint64_t to_ns(std::chrono::steady_clock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch()).count());
}

double micros_between(std::chrono::steady_clock::time_point from,
                      std::chrono::steady_clock::time_point to) {
  return std::max(0.0, std::chrono::duration<double, std::micro>(to - from).count());
}

}  // namespace

Engine::Engine(const serve::WifiLocalizer& wifi, EngineConfig config)
    : Engine(std::make_unique<PlanBackend>(wifi), config) {}

Engine::Engine(std::unique_ptr<WifiBackend> backend, EngineConfig config)
    : config_(config),
      backend_(std::move(backend)),
      queue_(config.queue_cap, std::min(config.bulk_cap, config.queue_cap)) {
  NOBLE_EXPECTS(backend_ != nullptr);
  NOBLE_EXPECTS(config_.workers >= 1);
  NOBLE_EXPECTS(config_.max_batch >= 1);
  NOBLE_EXPECTS(config_.session_backlog >= 1);
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
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
  WifiRequest request{{{}, submitted_at, options.request_class, options.trace, options.notify},
                      rssi};
  std::future<serve::Fix> result = request.envelope.promise.get_future();
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
  PendingUpdate update{
      {{}, submitted_at, options.request_class, options.trace, options.notify},
      std::move(segment),
      options.deadline};
  std::future<serve::Fix> result = update.envelope.promise.get_future();
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
  std::vector<Envelope> dropped;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->closed = true;
    for (PendingUpdate& pending : state->pending) {
      dropped.push_back(std::move(pending.envelope));
    }
    state->pending.clear();
  }
  fail(dropped, Failure::kSessionClosed);
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
    split.closed = class_closed_[i].value();
    snapshot.submitted += split.accepted;
    snapshot.rejected += split.rejected;
    snapshot.expired += split.expired;
    snapshot.closed += split.closed;
  }
  snapshot.set_queue_depths(queue_.depth(RequestClass::kInteractive),
                            queue_.depth(RequestClass::kBulk));
  return snapshot;
}

void ClassStats::merge(const ClassStats& other) {
  accepted += other.accepted;
  rejected += other.rejected;
  expired += other.expired;
  closed += other.closed;
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
  closed += other.closed;
  completed += other.completed;
  batches += other.batches;
  imu_batches += other.imu_batches;
  queue_depth += other.queue_depth;
  batch_size.merge(other.batch_size);
  imu_batch_size.merge(other.imu_batch_size);
  queue_wait_us.merge(other.queue_wait_us);
  assembly_us.merge(other.assembly_us);
  latency_us.merge(other.latency_us);
  interactive.merge(other.interactive);
  bulk.merge(other.bulk);
}

void Engine::worker_loop() {
  for (;;) {
    std::vector<Request> expired;
    std::vector<Request> batch = queue_.pop_batch(config_.max_batch, &expired);
    if (batch.empty() && expired.empty()) return;  // closed and fully drained
    const Clock::time_point dequeued = Clock::now();
    // Deadline-expired takes never reach the backend: fail them now, before
    // the live batch computes — the batch slots went to live requests.
    std::vector<Envelope> lapsed;
    for (Request& request : expired) {
      if (auto* query = std::get_if<WifiRequest>(&request)) {
        lapsed.push_back(std::move(query->envelope));
      } else {
        // Tokens are pushed without deadlines; treat one here as live.
        batch.push_back(std::move(request));
      }
    }
    fail(lapsed, Failure::kExpired);
    // Partition the takes: independent Wi-Fi queries coalesce into one
    // network pass; session tokens are drained afterwards in batched IMU
    // rounds (their ordering lives in the per-session FIFO, not the shared
    // queue).
    std::vector<Envelope> wifi;
    std::vector<serve::RssiVector> queries;
    std::vector<SessionId> tokens;
    wifi.reserve(batch.size());
    queries.reserve(batch.size());
    for (Request& request : batch) {
      if (auto* query = std::get_if<WifiRequest>(&request)) {
        wifi.push_back(std::move(query->envelope));
        queries.push_back(std::move(query->rssi));
      } else {
        tokens.push_back(std::get<SessionWork>(request).id);
      }
    }
    if (!wifi.empty()) {
      const Clock::time_point assembled = Clock::now();
      const std::vector<serve::Fix> fixes = backend_->locate_batch(queries);
      settle(wifi, fixes, batch_hist_, {dequeued, assembled, Clock::now()});
    }
    if (!tokens.empty()) drain_sessions(tokens);
  }
}

void Engine::settle(std::vector<Envelope>& round, const std::vector<serve::Fix>& fixes,
                    Histogram& sizes, const RoundTimes& times) {
  {
    // One stats lock per round, not per request — part of the per-request
    // overhead batching exists to amortize.
    std::lock_guard<std::mutex> lock(stats_mu_);
    sizes.record(static_cast<double>(round.size()));
    assembly_hist_.record(micros_between(times.dequeued, times.assembled));
    for (const Envelope& request : round) {
      queue_wait_hist_.record(micros_between(request.submitted_at, times.dequeued));
      class_latency_[request_class_index(request.cls)].record(
          micros_between(request.submitted_at, times.done));
    }
  }
  const std::uint64_t dequeued_ns = to_ns(times.dequeued);
  const std::uint64_t assembled_ns = to_ns(times.assembled);
  const std::uint64_t done_ns = to_ns(times.done);
  for (std::size_t i = 0; i < round.size(); ++i) {
    Envelope& request = round[i];
    obs::Trace* trace = request.trace.get();
    // Every engine mark lands before set_value: the promise hands the trace
    // to whoever awaits the future.
    if (trace != nullptr) {
      trace->stamp(obs::Mark::kDequeued, dequeued_ns);
      trace->stamp(obs::Mark::kAssembled, assembled_ns);
      trace->stamp(obs::Mark::kComputed, done_ns);
    }
    request.promise.set_value(fixes[i]);
    if (trace != nullptr && !trace->external_respond) {
      // In-process serving: fulfilling the future IS the response write.
      trace->stamp(obs::Mark::kResponded);
      obs::Tracer::global().finish(*trace);
    }
  }
  // Notifiers run after the whole round settled: a waiting edge wakes once
  // per round, not once per set_value.
  for (Envelope& request : round) {
    if (request.notify) request.notify();
  }
}

void Engine::fail(std::vector<Envelope>& failed, Failure why) {
  for (Envelope& request : failed) {
    const std::size_t cls = request_class_index(request.cls);
    if (why == Failure::kExpired) {
      class_expired_[cls].inc();
      request.promise.set_exception(std::make_exception_ptr(DeadlineExpired{}));
    } else {
      class_closed_[cls].inc();
      request.promise.set_exception(std::make_exception_ptr(
          std::runtime_error("noble::engine: session closed with pending updates")));
    }
  }
  for (Envelope& request : failed) {
    if (request.notify) request.notify();
  }
}

void Engine::drain_sessions(const std::vector<SessionId>& ids) {
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
  std::vector<Envelope> round;
  std::vector<Envelope> lapsed;
  std::vector<serve::ImuSegment> taken;
  std::vector<serve::TrackingSession*> sessions;
  std::vector<const serve::ImuSegment*> segments;
  for (;;) {
    // One round: at most one live update per session, FIFO within each
    // track, the whole round served by a single batched pass.
    round.clear();
    lapsed.clear();
    taken.clear();
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
          // updates see the session state without it, and its successor
          // gets this round's slot.
          lapsed.push_back(std::move(update.envelope));
          continue;
        }
        round.push_back(std::move(update.envelope));
        taken.push_back(std::move(update.segment));
        sessions.push_back(&state.session);
        took = true;
        break;
      }
      if (!took) {
        state.scheduled = false;  // FIFO drained: retire this track's token
        active[t] = 0;
      }
    }
    fail(lapsed, Failure::kExpired);  // outside every session lock
    if (round.empty()) break;
    // Each round is its own dequeue, read once its pops are done: no update
    // it takes was admitted after this instant, so queue wait ends here and
    // assembly time starts here, exactly as for a Wi-Fi batch.
    const Clock::time_point dequeued = Clock::now();
    for (const serve::ImuSegment& segment : taken) segments.push_back(&segment);
    const Clock::time_point assembled = Clock::now();
    const std::vector<serve::Fix> fixes = imu_->update_sessions(sessions, segments);
    settle(round, fixes, imu_batch_hist_, {dequeued, assembled, Clock::now()});
  }
}

}  // namespace noble::engine
