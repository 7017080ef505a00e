// Per-request stage tracing: where did the microseconds go?
//
// A `Trace` rides a request through the stack — gateway decode → admission
// → queue wait → batch assembly → kernel compute → response write — and
// records one monotonic timestamp per stage boundary (`Mark`). Ownership
// follows the request: the edge that creates the request (gateway frame
// handler, or the bench harness for in-process runs) starts the trace and
// attaches it to `SubmitOptions`; the tier that writes the response calls
// `Tracer::finish`, which folds the stage durations into always-on
// per-stage latency histograms in the metrics registry.
//
// Synchronization: a Trace's marks are plain (non-atomic) words. Every
// handoff between the threads that stamp them already carries a
// happens-before edge — the queue push/pop for admission → dequeue, the
// promise/future for compute → response — so no per-stamp atomics are
// needed. Tracing is observability only: it never changes when or where a
// scan runs, and never its result (the bit-identity contract).
//
// One knob, read once at first use of `Tracer::global()`:
//   NOBLE_TRACE  tracing on/off (default 1; 0 ⇒ no traces allocated)
#ifndef NOBLE_OBS_TRACE_H_
#define NOBLE_OBS_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>

#include "obs/metrics.h"

namespace noble::obs {

/// Stage-boundary timestamps, in pipeline order. A mark of 0 means "never
/// reached / not applicable" (in-process submissions have no kRecv; a
/// request expired in the queue has no kDequeued).
enum class Mark : std::uint8_t {
  kRecv = 0,      ///< frame bytes arrived at the gateway
  kSubmit,        ///< decoded and handed to submit()/track()
  kAdmitted,      ///< passed admission, entering the queue
  kDequeued,      ///< popped by a worker (a session update: taken by its round)
  kAssembled,     ///< micro-batch built, entering compute
  kComputed,      ///< kernel finished
  kResponded,     ///< response handed back (future set / socket buffered)
  kNumMarks,
};
inline constexpr std::size_t kNumMarks = static_cast<std::size_t>(Mark::kNumMarks);

/// Durations between consecutive marks. kDecode only exists for wire
/// requests (kRecv stamped). kQueueWait ends when a worker dequeues the
/// request: the pop of a Wi-Fi batch, or the IMU round that takes a session
/// update — each round of a session drain is its own dequeue, so an update
/// that entered its FIFO mid-drain waits until the round that serves it.
enum class Stage : std::uint8_t {
  kDecode = 0,      ///< kRecv → kSubmit
  kAdmission,       ///< kSubmit → kAdmitted
  kQueueWait,       ///< kAdmitted → kDequeued
  kBatchAssembly,   ///< kDequeued → kAssembled
  kCompute,         ///< kAssembled → kComputed
  kRespond,         ///< kComputed → kResponded
  kNumStages,
};
inline constexpr std::size_t kNumStages = static_cast<std::size_t>(Stage::kNumStages);

/// Stable lowercase stage name ("decode", ..., "respond") — the `stage`
/// label value on `noble_stage_latency_us`.
const char* stage_name(Stage stage);

/// One request's stage clock. Created by `Tracer::start`, carried by
/// `shared_ptr` through `SubmitOptions` (the engine copies options), marks
/// stamped by whichever thread owns the request at that boundary.
struct Trace {
  std::uint64_t id = 0;
  /// True when a tier above the engine (the gateway) writes the response
  /// and must therefore stamp kResponded and call finish(); the engine
  /// finishes the trace itself otherwise.
  bool external_respond = false;
  std::array<std::uint64_t, kNumMarks> marks_ns{};  // 0 = not reached

  /// Monotonic nanoseconds (steady clock) — the only clock marks use.
  static std::uint64_t now_ns();

  void stamp(Mark mark) { stamp(mark, now_ns()); }
  void stamp(Mark mark, std::uint64_t ns) {
    marks_ns[static_cast<std::size_t>(mark)] = ns;
  }
  std::uint64_t mark_ns(Mark mark) const {
    return marks_ns[static_cast<std::size_t>(mark)];
  }

  /// Duration of `stage` in us, or a negative value when either endpoint
  /// was never stamped.
  double stage_us(Stage stage) const;

  /// End-to-end us: kRecv (or kSubmit when no wire leg) → kResponded;
  /// negative when unfinished.
  double e2e_us() const;
};

/// Factory + sink for traces. Owns the always-on per-stage histograms
/// (`noble_stage_latency_us{stage=...}`, `noble_trace_e2e_us`) plus the
/// started/finished counters, all registered in the given `Registry`.
/// Instantiable for tests; `global()` (enabled per NOBLE_TRACE) is the one
/// the serving stack uses.
class Tracer {
 public:
  explicit Tracer(Registry& registry);

  static Tracer& global();

  /// The one switch: disabled, start() hands out no traces.
  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// A fresh trace, or nullptr when tracing is disabled (the disabled hot
  /// path allocates nothing).
  std::shared_ptr<Trace> start(std::uint64_t id);

  /// Terminal sink: records every reached stage into its histogram and the
  /// e2e span. Call exactly once, after the final mark; traces of failed
  /// requests may simply be dropped instead (their stages stay out of the
  /// histograms — stage latency describes served requests).
  void finish(const Trace& trace);

 private:
  std::atomic<bool> enabled_{true};
  std::array<HistogramMetric*, kNumStages> stage_hist_{};
  HistogramMetric* e2e_hist_ = nullptr;
  Counter* started_ = nullptr;
  Counter* finished_ = nullptr;
};

}  // namespace noble::obs

#endif  // NOBLE_OBS_TRACE_H_
