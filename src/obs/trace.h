// Per-request stage tracing: where did the microseconds go?
//
// A `Trace` rides a request through the stack — gateway decode → admission
// → queue wait → batch assembly → kernel compute → response write — and
// records one monotonic timestamp per stage boundary (`Mark`). Ownership
// follows the request: the edge that creates the request (gateway frame
// handler, or the bench harness for in-process runs) starts the trace and
// attaches it to `SubmitOptions`; the tier that writes the response calls
// `Tracer::finish`, which folds the stage durations into always-on
// per-stage latency histograms in the metrics registry, pushes sampled
// traces into a lock-free ring for inspection, and logs a full stage
// breakdown for any request slower than the configured threshold.
//
// Synchronization: a Trace's marks are plain (non-atomic) words. Every
// handoff between the threads that stamp them already carries a
// happens-before edge — the queue push/pop for admission → dequeue, the
// promise/future for compute → response — so no per-stamp atomics are
// needed. Tracing is observability only: it never changes when or where a
// scan runs, and never its result (the bit-identity contract).
//
// Knobs (read once at first use of `Tracer::global()`):
//   NOBLE_TRACE         tracing on/off (default 1; 0 ⇒ no traces allocated)
//   NOBLE_TRACE_SAMPLE  fraction of traces kept in the ring (default 0.01)
//   NOBLE_TRACE_SLOW_US slow-request log threshold in us (default 0 = off)
//   NOBLE_TRACE_SEED    sampling hash seed (fixed default; determinism knob)
#ifndef NOBLE_OBS_TRACE_H_
#define NOBLE_OBS_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

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
  bool sampled = false;
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

/// A finished, sampled trace as stored in the ring: id + all marks, flat.
struct TraceRecord {
  std::uint64_t id = 0;
  std::array<std::uint64_t, kNumMarks> marks_ns{};
};

/// Fixed-size lock-free ring of recent sampled traces. Writers claim a slot
/// by sequence CAS (a writer that loses the race drops its record — the
/// ring samples, it does not queue), stamp the payload through relaxed
/// atomics, and publish with a release store; `snapshot()` skips slots
/// caught mid-write. All payload accesses are atomic, so concurrent
/// write/read is well-defined (and TSan-clean), merely possibly skipped.
class TraceRing {
 public:
  /// Capacity is rounded up to a power of two; default 1024 records.
  explicit TraceRing(std::size_t capacity = 1024);

  void push(const TraceRecord& rec);

  /// All fully-published records, unordered. Concurrent pushes may be
  /// missed or duplicated-by-overwrite; each returned record is internally
  /// consistent.
  std::vector<TraceRecord> snapshot() const;

  std::size_t capacity() const { return slots_.size(); }
  /// Records dropped to a slot-claim race (diagnostic, not an error).
  std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  struct Slot {
    // seq: 0 = never written; odd = write in progress; even > 0 = published.
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> id{0};
    std::array<std::atomic<std::uint64_t>, kNumMarks> marks{};
  };
  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// Runtime tracing configuration. `from_env()` reads the NOBLE_TRACE_*
/// knobs; benches reconfigure programmatically (the overhead gate flips
/// `enabled` with everything else held fixed).
struct TraceConfig {
  bool enabled = true;
  double sample_rate = 0.01;     ///< fraction of traces pushed to the ring
  std::uint64_t slow_us = 0;     ///< 0 disables the slow-request log
  std::uint64_t seed = 0x6f62735f6e6f626cULL;  ///< sampling hash seed

  static TraceConfig from_env();
};

/// Deterministic sampler: trace n is sampled iff mix64(seed ^ n) falls
/// under rate · 2^64. The decision sequence is a pure function of (seed,
/// counter), independent of thread interleaving — the property the
/// determinism test in test_obs pins down.
class TraceSampler {
 public:
  /// Pure decision for sequence number `n` under (seed, rate).
  static bool decide(std::uint64_t seed, std::uint64_t n, double rate);

  void configure(std::uint64_t seed, double rate);
  bool next() { return decide(seed_, n_.fetch_add(1, std::memory_order_relaxed), rate_); }

 private:
  std::atomic<std::uint64_t> n_{0};
  std::uint64_t seed_ = 0;
  double rate_ = 0.0;
};

/// Factory + sink for traces. Owns the ring and the always-on per-stage
/// histograms (`noble_stage_latency_us{stage=...}`, `noble_trace_e2e_us`)
/// plus trace counters, all registered in the given `Registry`.
/// Instantiable for tests; `global()` (lazily configured from env) is the
/// one the serving stack uses.
class Tracer {
 public:
  explicit Tracer(Registry& registry, std::size_t ring_capacity = 1024);

  static Tracer& global();

  /// Atomically swaps the runtime config and resets the sampling sequence
  /// to 0 (so identical configs replay identical sampling decisions).
  void configure(const TraceConfig& config);
  TraceConfig config() const;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// A fresh trace with the sampling decision taken, or nullptr when
  /// tracing is disabled (the disabled hot path allocates nothing).
  std::shared_ptr<Trace> start(std::uint64_t id);

  /// Terminal sink: records every reached stage into its histogram, the
  /// e2e span, ring-pushes sampled traces, and emits the slow-request log.
  /// Call exactly once, after the final mark; traces of failed requests
  /// may simply be dropped instead (their stages stay out of the
  /// histograms — stage latency describes served requests).
  void finish(const Trace& trace);

  const TraceRing& ring() const { return ring_; }

 private:
  mutable std::mutex config_mu_;
  TraceConfig config_;
  std::atomic<bool> enabled_{true};
  std::atomic<std::uint64_t> slow_ns_{0};
  TraceSampler sampler_;
  TraceRing ring_;
  std::array<HistogramMetric*, kNumStages> stage_hist_{};
  HistogramMetric* e2e_hist_ = nullptr;
  Counter* started_ = nullptr;
  Counter* finished_ = nullptr;
  Counter* sampled_ = nullptr;
  Counter* slow_ = nullptr;
};

}  // namespace noble::obs

#endif  // NOBLE_OBS_TRACE_H_
