// noble::engine — concurrent micro-batching inference engine.
//
// PR 2's localizers are thread-safe but single-query: many concurrent
// clients each paying a one-row network pass forfeit the batched-GEMM
// amortization `locate_batch` already proves out. The engine closes that
// serving gap:
//
//   clients ── submit() ──▶ bounded queue ── pop_batch ──▶ worker 0 ─┐
//      ▲          │            (admission control)         worker 1 ─┼─ backend
//      │          └─ kQueueFull / kBadDimension / kStopped    ...    ─┘
//      └──────────── std::future<Fix> fulfilled per micro-batch
//
// Requests are coalesced up to a max batch size and executed on a worker
// pool that shares one WifiBackend (see engine/backend.h: one compiled fp32
// plan, immutable so there are no locks on the hot path). Output is
// bit-identical to direct inference on the same backend for every request
// regardless of how requests get batched.
//
// Admission control is class- and deadline-aware. Every submission carries
// a RequestClass — kInteractive (a user is waiting) or kBulk (background
// re-localization sweep) — and optionally a deadline:
//  - a bulk queue cap bounds how much of the bounded queue bulk traffic
//    may occupy, so a bulk flood sheds (kQueueFull) while interactive
//    admissions keep their reserved headroom;
//  - workers drain interactive entries first on every sweep, bulk fills
//    the remainder of each micro-batch, earliest deadline first;
//  - a request whose deadline passes before a worker reaches it never
//    spends a GEMM slot: at submit() an already-expired deadline returns
//    SubmitStatus::kExpired, and an accepted request that expires while
//    queued fails its future with DeadlineExpired.
// Class and deadline decide *when and whether* a scan runs — never its
// result: any request that is served is bit-identical to direct inference.
//
// Batching is work-conserving: there is no batching window. A worker
// serves whatever is queued the moment it wakes, so a lone request never
// waits for company, while backlog that piles up behind busy workers is
// taken up to max_batch at a time — batch while busy, never wait while idle.
//
// A session registry multiplexes many concurrent IMU TrackingSessions
// behind the same worker pool: per-session FIFOs keep each track's updates
// ordered while different tracks proceed in parallel, and the pending
// updates of every session one pop covers are served in batched IMU rounds.
//
// Every request has one lifecycle. Wi-Fi scans and IMU updates carry the
// same Envelope (promise, admission time, class, trace, notifier), and a
// Wi-Fi batch and an IMU round settle through the same routine: one stats
// hold, the dequeue/assembly/compute stamps, the set_values, then every
// notifier. An IMU round is its own dequeue, so the engine histograms and
// the trace stages read the same timestamps on both paths.
//
// Telemetry: `stats()` snapshots per-class queue depths and admission
// counters plus the batch-size, queue-wait, assembly and latency histograms
// (noble::Histogram). Each fact has one owner: totals are sums of the class
// splits, completion and batch counts are histogram counts, and percentiles
// are computed from the histograms by whoever reads them
// (summarize_latency_us).
#ifndef NOBLE_ENGINE_ENGINE_H_
#define NOBLE_ENGINE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "common/stats.h"
#include "engine/backend.h"
#include "engine/bounded_queue.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/imu_localizer.h"
#include "serve/wifi_localizer.h"

namespace noble::engine {

/// Admission-control verdict for one submitted request. Shared by Engine
/// and the fleet Router (which adds the kNoShard routing failure).
enum class SubmitStatus {
  kAccepted,      ///< queued; `result` will be fulfilled
  kQueueFull,     ///< backpressure: bounded queue (or session backlog) full
  kBadDimension,  ///< payload size does not match the model's input layout
  kNoSession,     ///< unknown or already-closed session id
  kNoShard,       ///< router-level: no shard registered under that key
  kExpired,       ///< the request's deadline had already passed at submit
  kStopped,       ///< engine is shut down
};

/// Fails the future of an accepted request whose deadline passed while it
/// waited in the queue (or in a session FIFO): the expired analogue of
/// SubmitStatus::kExpired for requests that were already admitted.
class DeadlineExpired : public std::runtime_error {
 public:
  DeadlineExpired()
      : std::runtime_error("noble::engine: deadline expired before execution") {}
};

/// Per-submission admission options: the request's class and an optional
/// absolute deadline. Defaults (interactive, no deadline) keep the plain
/// submit(rssi) behavior.
struct SubmitOptions {
  RequestClass request_class = RequestClass::kInteractive;
  /// Absolute steady-clock deadline. A request not *started* by then is
  /// expired: kExpired at submit if already past, DeadlineExpired on the
  /// future if it lapses in the queue. nullopt = no deadline.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Optional stage trace (obs/trace.h), created by the submitting edge
  /// (gateway or bench harness). The engine stamps kAdmitted/kDequeued/
  /// kAssembled/kComputed on it and — unless `trace->external_respond` says
  /// a higher tier writes the response — stamps kResponded and finishes it
  /// after fulfilling the future. nullptr (the default) costs nothing on
  /// the hot path. Tracing is observability only: it never changes when,
  /// where, or with what result a request runs.
  std::shared_ptr<obs::Trace> trace;
  /// Optional completion notifier, called once the request's future is
  /// settled — with a fix, DeadlineExpired, or a close_session failure —
  /// so an edge that multiplexes many futures on one thread (a socket
  /// handler) wakes instead of polling. It runs on the settling thread:
  /// an engine worker, or the close_session caller. It must never block or
  /// take a lock the submitter may hold across a submit. The engine calls
  /// each notifier after the whole batch, IMU round or expiry sweep that
  /// settled its request, never between set_values. Empty (the default)
  /// costs nothing.
  std::function<void()> notify;

  static SubmitOptions interactive() { return {}; }
  static SubmitOptions bulk() {
    SubmitOptions options;
    options.request_class = RequestClass::kBulk;
    return options;
  }
  /// Fluent deadline-as-budget: expire unless started within `budget_us`.
  SubmitOptions& expires_in_us(std::uint64_t budget_us) {
    deadline = std::chrono::steady_clock::now() + std::chrono::microseconds(budget_us);
    return *this;
  }
};

/// One submit() outcome: a status plus — only when accepted — a future that
/// the worker pool fulfills with the localization fix.
struct Submission {
  SubmitStatus status = SubmitStatus::kStopped;
  std::future<serve::Fix> result;  ///< valid only when status == kAccepted

  bool accepted() const { return status == SubmitStatus::kAccepted; }
};

struct EngineConfig {
  /// Worker threads, all serving from the engine's one WifiBackend.
  std::size_t workers = 2;
  /// Most requests coalesced into one network pass.
  std::size_t max_batch = 32;
  /// Bounded request-queue capacity; submissions beyond it are rejected
  /// with kQueueFull (explicit backpressure instead of unbounded memory).
  std::size_t queue_cap = 1024;
  /// Most queue slots bulk submissions may occupy at once; 0 means "no
  /// bulk cap" (bounded by queue_cap only). Setting this below queue_cap
  /// reserves the difference as interactive-only headroom — the
  /// load-shedding knob.
  std::size_t bulk_cap = 0;
  /// Most not-yet-processed segments one tracking session may buffer before
  /// its submissions are rejected with kQueueFull.
  std::size_t session_backlog = 64;
};

/// Per-class admission/latency telemetry. Merge()-able like everything
/// else in EngineStats, so fleet views report interactive and bulk
/// behavior separately.
struct ClassStats {
  std::uint64_t accepted = 0;  ///< admitted to the queue or a session FIFO
  std::uint64_t rejected = 0;  ///< kQueueFull/kBadDimension/kStopped verdicts
  std::uint64_t expired = 0;   ///< kExpired at submit + DeadlineExpired futures
  std::uint64_t closed = 0;    ///< pending updates failed by close_session
  /// Instantaneous depth of this class's queue lane — the split of
  /// EngineStats::queue_depth the obs labeled depth gauges read.
  std::size_t queue_depth = 0;
  /// submit -> fulfilled; percentiles via summarize_latency_us(latency_us).
  Histogram latency_us = Histogram::latency_us();

  /// Counters and depths sum, the histogram merge()s bin-wise.
  void merge(const ClassStats& other);
};

/// Telemetry snapshot. Histograms share noble::Histogram's fixed layouts,
/// so snapshots from several engines can be merge()d for fleet views —
/// that is exactly what fleet::Router::stats() does.
///
/// The snapshot is a derived view: Engine::stats() fills `submitted`,
/// `rejected`, `expired`, `closed` and `queue_depth` as interactive + bulk,
/// and `completed`, `batches` and `imu_batches` as the counts of
/// `latency_us`, `batch_size` and `imu_batch_size`. Nothing stores a percentile; read one
/// with summarize_latency_us() or Histogram::percentile().
struct EngineStats {
  std::uint64_t submitted = 0;  ///< accepted (queued or in a session FIFO)
  std::uint64_t rejected = 0;   ///< non-kAccepted submissions (kExpired aside)
  std::uint64_t expired = 0;    ///< deadline-expired requests, both flavors
  std::uint64_t closed = 0;     ///< pending updates failed by close_session
  std::uint64_t completed = 0;  ///< futures fulfilled
  std::uint64_t batches = 0;    ///< Wi-Fi micro-batches executed
  /// Batched IMU passes executed (every session update is served by exactly
  /// one, of size >= 1; a pass spans every session one pop covered).
  std::uint64_t imu_batches = 0;
  std::size_t queue_depth = 0;  ///< instantaneous shared-queue depth
  /// Per-class splits of the admission counters, depths and latencies. The
  /// totals above are exactly interactive + bulk (latency_us is their merge).
  ClassStats interactive;
  ClassStats bulk;
  /// Always 0: the engine has no batching window. Kept only because the
  /// ledger benchmark still reads it; stats() and merge() never set it.
  std::uint64_t batch_wait_us = 0;
  Histogram batch_size = Histogram::batch_sizes();  ///< Wi-Fi batch sizes
  /// Cross-session IMU coalescing widths (updates per imu_batch).
  Histogram imu_batch_size = Histogram::batch_sizes();
  /// Measured per-request queue wait (admit -> dequeue) and per-batch
  /// assembly time (dequeue -> compute start), for Wi-Fi batches and IMU
  /// rounds alike — the engine-owned, always-on counterparts of the obs
  /// kQueueWait/kBatchAssembly stages, read from the same timestamps.
  Histogram queue_wait_us = Histogram::latency_us();
  Histogram assembly_us = Histogram::latency_us();
  Histogram latency_us = Histogram::latency_us();   ///< submit -> fulfilled

  /// Per-class view by enum (read-only convenience over the named fields).
  const ClassStats& for_class(RequestClass cls) const {
    return cls == RequestClass::kInteractive ? interactive : bulk;
  }

  /// Sets both lane depths and queue_depth as their sum, so the total and
  /// its class split can never disagree.
  void set_queue_depths(std::size_t interactive_depth, std::size_t bulk_depth);

  /// Folds another engine's snapshot into this one: counters and gauges
  /// sum, the histograms (total and per-class) merge() bin-wise.
  void merge(const EngineStats& other);
};

/// Handle for one registered IMU tracking session.
using SessionId = std::uint64_t;

class Engine {
 public:
  /// Wi-Fi-only engine: builds one PlanBackend over a deep copy of `wifi`
  /// and starts the pool.
  explicit Engine(const serve::WifiLocalizer& wifi, EngineConfig config = {});

  /// Engine that additionally serves streaming IMU sessions. The single
  /// `imu` localizer is shared by all sessions — its inference path is
  /// const and thread-safe, like the Wi-Fi backend's.
  Engine(const serve::WifiLocalizer& wifi, const serve::ImuLocalizer& imu,
         EngineConfig config = {});

  /// Backend-injection constructor: every worker serves from `backend`.
  /// This is the seam custom forward paths (tests, future accelerator
  /// backends) plug into.
  explicit Engine(std::unique_ptr<WifiBackend> backend, EngineConfig config = {});

  /// Drains and joins (see shutdown()).
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Asynchronous localization of one raw RSSI scan. Never blocks: the scan
  /// is queued (kAccepted, fulfilled by a worker micro-batch) or rejected
  /// with an explicit status. Takes a reference and copies only on
  /// admission, so rejection/fallback paths (the fleet router probes
  /// several engines with one scan) never pay for the copy.
  ///
  /// `options` selects the admission class (interactive drains before bulk,
  /// the bulk cap applies) and an optional deadline: already expired =>
  /// kExpired here; expires while queued => DeadlineExpired on the future.
  Submission submit(const serve::RssiVector& rssi, const SubmitOptions& options);
  Submission submit(const serve::RssiVector& rssi) { return submit(rssi, {}); }

  /// Registers a streaming IMU track anchored at `start`. nullopt when the
  /// engine was built without an IMU localizer or is stopped.
  std::optional<SessionId> open_session(const geo::Point2& start);

  /// Queues one IMU segment for `session`. Updates to one session are
  /// applied strictly in submission order; distinct sessions proceed in
  /// parallel on the worker pool. Admission options apply per update: an
  /// expired update fails with kExpired/DeadlineExpired and is *not*
  /// applied to the track (later updates see the state without it).
  Submission track(SessionId session, serve::ImuSegment segment,
                   const SubmitOptions& options);
  Submission track(SessionId session, serve::ImuSegment segment) {
    return track(session, std::move(segment), {});
  }

  /// Unregisters a session. Pending (unprocessed) updates fail their
  /// futures with std::runtime_error and count in EngineStats::closed.
  /// Returns false for unknown ids.
  bool close_session(SessionId session);

  /// Stops admission, drains every queued request (all accepted futures are
  /// fulfilled), and joins the workers. Idempotent; the destructor calls it.
  void shutdown();

  /// Telemetry snapshot; safe to call concurrently with serving.
  EngineStats stats() const;

  const EngineConfig& config() const { return config_; }
  /// Instantaneous shared-queue depth — the cheap load signal the fleet
  /// router's queue-depth-weighted bulk spill reads (stats() copies whole
  /// histograms; this takes one queue lock).
  std::size_t queue_depth() const { return queue_.depth(); }
  /// Per-class lane depth: what a spilling bulk sweep actually competes
  /// with is the *bulk* lane, not interactive traffic that outranks it
  /// everywhere anyway. Same cost as queue_depth() — one queue lock.
  std::size_t queue_depth(RequestClass cls) const { return queue_.depth(cls); }
  std::size_t num_aps() const { return backend_->input_dim(); }
  bool has_imu() const { return imu_.has_value(); }

 private:
  using Clock = std::chrono::steady_clock;

  /// What every request carries from admission to settle, whatever it
  /// computes: a Wi-Fi scan and an IMU update differ only in their payload.
  struct Envelope {
    std::promise<serve::Fix> promise;
    Clock::time_point submitted_at;
    RequestClass cls = RequestClass::kInteractive;
    std::shared_ptr<obs::Trace> trace;  ///< stage clock; nullptr = untraced
    std::function<void()> notify;       ///< SubmitOptions::notify
  };
  struct WifiRequest {
    Envelope envelope;
    serve::RssiVector rssi;
  };
  /// Queue token: "this session has pending segments". One token is in
  /// flight per session regardless of backlog depth, so a busy track cannot
  /// starve the shared queue.
  struct SessionWork {
    SessionId id;
  };
  using Request = std::variant<WifiRequest, SessionWork>;

  struct PendingUpdate {
    Envelope envelope;
    serve::ImuSegment segment;
    std::optional<Clock::time_point> deadline;
  };
  struct SessionState {
    explicit SessionState(serve::TrackingSession s) : session(std::move(s)) {}
    std::mutex mu;
    serve::TrackingSession session;
    std::deque<PendingUpdate> pending;
    bool scheduled = false;  ///< a SessionWork token is queued or running
    bool closed = false;
  };

  /// Pops, fails what expired in the queue, serves the Wi-Fi scans as one
  /// batch and hands the session tokens to drain_sessions.
  void worker_loop();
  /// Session drain for every token one pop returned (a lone token included):
  /// takes one pending update per session per round and serves each round
  /// with a single batched IMU pass (ImuLocalizer::update_sessions).
  /// Session locks are taken only to pop or retire — never across the
  /// batched pass — so producers keep filling the per-session FIFOs while
  /// the GEMM runs. The one-token-in-flight invariant makes this worker the
  /// sole consumer of every track it drains, so each track's updates apply
  /// strictly in FIFO order.
  void drain_sessions(const std::vector<SessionId>& ids);

  /// The instants one Wi-Fi batch or IMU round passed: its requests left
  /// the queue, the batch was built, the compute finished.
  struct RoundTimes {
    Clock::time_point dequeued;
    Clock::time_point assembled;
    Clock::time_point done;
  };
  /// The one success path, for a Wi-Fi batch and for an IMU round: records
  /// the round's size into `sizes`, its assembly time and each request's
  /// queue wait and latency under one stats_mu_ hold; stamps kDequeued,
  /// kAssembled and kComputed (the worker owns every trace until set_value);
  /// fulfils each promise with its fix; finishes the in-process traces; and
  /// only then calls every notifier, once each.
  void settle(std::vector<Envelope>& round, const std::vector<serve::Fix>& fixes,
              Histogram& sizes, const RoundTimes& times);
  enum class Failure { kExpired, kSessionClosed };
  /// The one failure path, for queue expiry, session-FIFO expiry and
  /// close_session: fails every request in `failed` (DeadlineExpired, or a
  /// closed-session runtime_error), counts each in its class's expired or
  /// closed counter, then calls every notifier. Traces of failed requests
  /// are dropped, not finished: stage latency describes served requests.
  void fail(std::vector<Envelope>& failed, Failure why);

  EngineConfig config_;
  std::unique_ptr<WifiBackend> backend_;  ///< shared by every worker
  std::optional<serve::ImuLocalizer> imu_;
  BoundedQueue<Request> queue_;

  /// Admission counters are obs::Counter (thread-striped atomics): many
  /// submitter threads increment without sharing a cache line, and the
  /// EngineStats snapshot is a struct *view* over the instruments, folded
  /// at stats() time. Per-class only, indexed by request_class_index(): the
  /// snapshot's totals are their sums.
  obs::Counter class_accepted_[kNumRequestClasses];
  obs::Counter class_rejected_[kNumRequestClasses];
  obs::Counter class_expired_[kNumRequestClasses];
  obs::Counter class_closed_[kNumRequestClasses];
  /// Guards the histograms below. Their counts are the snapshot's batch
  /// and completion counters, so no separate counter shadows them.
  mutable std::mutex stats_mu_;
  Histogram batch_hist_ = Histogram::batch_sizes();
  Histogram imu_batch_hist_ = Histogram::batch_sizes();
  Histogram queue_wait_hist_ = Histogram::latency_us();
  Histogram assembly_hist_ = Histogram::latency_us();
  /// One latency histogram per class; the snapshot's total latency_us is
  /// their merge, so every completion is recorded exactly once.
  Histogram class_latency_[kNumRequestClasses] = {Histogram::latency_us(),
                                                  Histogram::latency_us()};

  mutable std::mutex sessions_mu_;  ///< guards the registry map only
  std::unordered_map<SessionId, std::shared_ptr<SessionState>> sessions_;
  std::atomic<SessionId> next_session_{1};

  std::atomic<bool> stopped_{false};
  std::mutex shutdown_mu_;  ///< serializes the join in shutdown()
  std::vector<std::thread> workers_;
};

}  // namespace noble::engine

#endif  // NOBLE_ENGINE_ENGINE_H_
