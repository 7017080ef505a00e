// noble_ledger — one benchmark that drives one query set through every layer
// of the serving stack and reports what each layer costs.
//
// A run is: train the pinned models, time ten cold starts of the
// serving stack, serve the whole query set once (the quality pass, which
// also warms the stack), run warm-up traffic, then measure five equal
// windows. Headline metrics are medians of the per-window values. A traced
// run additionally walks the layer ladder (kernels -> plan -> locate_batch
// -> Engine -> Router -> gateway -> cluster spill) and records a span around
// every call the benchmark makes into a layer.
#ifndef BENCH_LEDGER_LEDGER_H_
#define BENCH_LEDGER_LEDGER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "cluster/node.h"
#include "common/stats.h"
#include "fleet/router.h"
#include "gateway/gateway.h"
#include "geo/point.h"
#include "obs/trace.h"
#include "serve/fix.h"
#include "serve/imu_localizer.h"
#include "serve/wifi_localizer.h"

namespace ledger {

using Clock = std::chrono::steady_clock;

/// Monotonic nanoseconds; every timestamp the ledger takes uses this clock.
std::int64_t now_ns();

/// Sleeps until 200 us before `due_ns`, then spins: a bare sleep_until wakes
/// tens of microseconds late at the median and milliseconds late at the
/// tail on a small VM, which would be charged to the system under test.
void wait_until_ns(std::int64_t due_ns);

// --- the query set -----------------------------------------------------------

/// One IMU test path: where it starts, where it truly ends, and its segments
/// as a range of Pool::segments.
struct TestPath {
  noble::geo::Point2 start;
  noble::geo::Point2 end;
  std::size_t first_segment = 0;
  std::size_t num_segments = 0;
};

/// Pinned models (as artifact bytes) plus the test split every workload
/// queries. Identical in every run: `--seed` never reaches it.
struct Pool {
  std::string wifi_artifact;
  std::string imu_artifact;
  std::vector<noble::serve::RssiVector> scans;
  std::vector<noble::geo::Point2> scan_truth;
  std::vector<TestPath> paths;
  std::vector<noble::serve::ImuSegment> segments;
  double train_s = 0.0;  ///< offline training time (excluded from set-up)
};

/// Trains the pinned models (deterministic: every run trains the same
/// weights) and extracts the test split.
Pool build_pool();

// --- metrics -----------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  std::uint64_t n = 0;  ///< samples behind the value
};
using MetricMap = std::map<std::string, Metric>;

/// Exact-sample statistics (linear interpolation; 0 for an empty sample).
using noble::median;
using noble::percentile;

/// The highest of p99.9 / p99 / p95 / p90 / p50 that has at least ten of
/// `n` samples beyond it — the tail a sample of this size supports. 0 when
/// even the median lacks ten samples above it.
double supported_tail_percentile(std::size_t n);

/// Cumulative `noble_stage_latency_us` histograms of the process-wide obs
/// registry, indexed by obs::Stage.
std::vector<noble::Histogram> stage_histograms();
/// Median of what `stage` recorded between two snapshots; `n` gets the
/// sample count. 0 when nothing was recorded.
double stage_p50_between(const std::vector<noble::Histogram>& before,
                         const std::vector<noble::Histogram>& after, noble::obs::Stage stage,
                         std::uint64_t* n);

// --- spans -------------------------------------------------------------------

/// One call into a layer as the benchmark saw it. Every span of one request
/// carries the request's id; a request's root span (due -> answered) has
/// parent 0 and the calls it caused have parent = that id.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint32_t tid = 0;
};

/// Per-thread span buffer: appends without locks up to a fixed capacity and
/// counts what did not fit. A null SpanLog* everywhere means "not traced".
class SpanLog {
 public:
  SpanLog(std::uint32_t tid, std::size_t capacity);
  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns, std::uint64_t id,
           std::uint64_t parent);
  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::uint32_t tid_;
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// Owns every thread's SpanLog for one traced run and writes them out as
/// Chrome trace-event JSON (load in chrome://tracing or ui.perfetto.dev).
class SpanSink {
 public:
  explicit SpanSink(std::size_t capacity_per_thread) : capacity_(capacity_per_thread) {}
  SpanLog* thread_log();  ///< a fresh log for the calling thread
  std::uint64_t next_id() { return reserve_ids(1); }
  /// First of `n` consecutive fresh request ids.
  std::uint64_t reserve_ids(std::uint64_t n) { return next_id_.fetch_add(n); }
  std::uint64_t total_dropped() const;
  bool write_chrome_json(const std::string& path, std::int64_t origin_ns) const;

 private:
  std::size_t capacity_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
  std::atomic<std::uint64_t> next_id_{1};
};

/// RAII span: times its scope into `log` (no-op when log is null).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t id, std::uint64_t parent)
      : log_(log), name_(name), id_(id), parent_(parent), start_(log ? now_ns() : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->add(name_, start_, now_ns(), id_, parent_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  const char* name_;
  std::uint64_t id_, parent_;
  std::int64_t start_;
};

// --- traffic samples and windows ---------------------------------------------

enum class Kind : std::uint8_t { kFix = 0, kBulk = 1, kTrack = 2 };
inline constexpr std::size_t kNumKinds = 3;
const char* kind_name(Kind kind);

/// One completed request: when it was due (its scheduled send time, or the
/// moment its client slot freed up in a closed loop) and when the client saw
/// the answer.
struct Sample {
  Kind kind = Kind::kFix;
  std::int64_t due_ns = 0;
  std::int64_t done_ns = 0;
};

/// Outcome counters for everything a run sent.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t refused = 0;    ///< admission verdicts (queue full, window full, ...)
  std::uint64_t expired = 0;    ///< deadline lapsed before service
  std::uint64_t transport = 0;  ///< broken futures, lost connections
  std::uint64_t mismatches = 0;  ///< served fix differs from direct inference
  std::uint64_t failed() const { return refused + expired + transport; }
  void merge(const Outcome& o);
};

/// What one IMU session was served, in submission order: replayed serially
/// through a fresh TrackingSession after the run.
struct SessionStream {
  noble::geo::Point2 start;
  std::vector<std::uint32_t> segments;  ///< Pool::segments indices
  std::vector<noble::serve::Fix> fixes;
  std::vector<std::uint8_t> ok;  ///< 0 = update failed (never applied)
};

/// Open-loop arrival times: a Poisson process at `rate_per_s` starting at
/// `t0_ns`, every arrival before `end_ns`.
std::vector<std::int64_t> poisson_schedule(noble::Rng& rng, double rate_per_s,
                                           std::int64_t t0_ns, std::int64_t end_ns);

/// Calls `send(i)` for every arrival at its due time, whatever happened to
/// earlier ones, and appends how late each send started to `lag_us`.
void dispatch_open_loop(const std::vector<std::int64_t>& due_ns,
                        const std::function<void(std::size_t)>& send,
                        std::vector<double>* lag_us);

/// Machine-wide CPU time from /proc/stat, in clock ticks: `steal` is time a
/// virtual CPU was ready but the hypervisor ran someone else — the share of
/// a run other tenants took. Zeros where /proc/stat is unreadable.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTicks read_cpu_ticks();

/// The measurement schedule: warm-up then `windows` equal windows.
struct WindowPlan {
  std::int64_t start_ns = 0;   ///< first window opens here (warm-up before)
  std::int64_t window_ns = 0;
  int windows = 5;
  std::int64_t end_ns() const { return start_ns + window_ns * windows; }
  /// Window index of a completion time, or -1 outside the windows.
  int window_of(std::int64_t t_ns) const;
};

/// Per-window medians and counts distilled from the samples.
struct WindowStats {
  std::vector<double> p50_us;            ///< all kinds, one per window
  std::vector<double> per_s;             ///< completions per second, per window
  std::vector<double> kind_p50_us[kNumKinds];
  std::vector<double> kind_per_s[kNumKinds];
  std::vector<double> pooled_us;         ///< every in-window latency, sorted
  std::size_t kind_count[kNumKinds] = {0, 0, 0};
};
WindowStats window_stats(const std::vector<Sample>& samples, const WindowPlan& plan);

// --- the serving stack ---------------------------------------------------------

enum class Front { kRouter, kGateway, kCluster };

struct SetupTimes {
  double decode_s = 0.0;     ///< decode_*_model from artifact bytes
  double localizer_s = 0.0;  ///< localizers (serving plan compile)
  double stack_s = 0.0;      ///< Router(s) and engines
  double front_s = 0.0;      ///< Listener / Coordinator + nodes converged
  double first_fix_s = 0.0;  ///< one fix through the front end
  double teardown_s = 0.0;
  double total() const {
    return decode_s + localizer_s + stack_s + front_s + first_fix_s + teardown_s;
  }
};

/// One live serving stack. Routers are built from library defaults except
/// where the workload says otherwise (cluster_spill's tight node-a shard).
class Stack {
 public:
  static constexpr const char* kShard = "bldg-A";

  /// Builds from artifact bytes, timing each phase into `times`. Null on a
  /// start failure (port bind, membership never converging).
  static std::unique_ptr<Stack> build(const Pool& pool, Front front, SetupTimes* times);
  ~Stack();

  /// The in-process entry point: the Router, or node-a in a cluster.
  noble::fleet::Routing& routing();
  /// Every Router in the stack (stats deltas sum over them).
  std::vector<const noble::fleet::Router*> routers() const;
  std::uint16_t gateway_port() const;
  const noble::serve::WifiLocalizer& wifi() const { return *wifi_; }
  const noble::serve::ImuLocalizer& imu() const { return *imu_; }
  /// node-a's cluster counters (zeros when not a cluster).
  noble::cluster::NodeCounters spill_counts() const;
  /// The gateway listener's counters (zeros when there is none).
  noble::gateway::GatewayCounters wire_counts() const;

 private:
  struct Parts;
  explicit Stack(Front front);
  Front front_;
  std::unique_ptr<noble::serve::WifiLocalizer> wifi_;
  std::unique_ptr<noble::serve::ImuLocalizer> imu_;
  std::unique_ptr<Parts> parts_;
};

/// Repeats complete start / first fix / teardown cycles, at least
/// `min_starts` of them and for at least `min_seconds`; `total_s` gets the
/// median cycle, `starts` the count, and the result the per-phase medians.
/// `total_s` is negative when a start failed.
SetupTimes measure_setup(const Pool& pool, Front front, int min_starts, double min_seconds,
                         double* total_s, int* starts);

// --- workloads ---------------------------------------------------------------

/// Direct WifiLocalizer::locate of every scan — the oracle every served
/// Wi-Fi fix is compared against, by query index.
using Memo = std::vector<noble::serve::Fix>;

struct TrafficResult {
  std::vector<Sample> samples;
  Outcome outcome;
  std::vector<SessionStream> streams;
  std::size_t queue_depth_max = 0;  ///< sampled at 100 Hz when traced
  std::vector<double> scrape_us;    ///< wire_mixed's 1 Hz scrapes
  /// How late each request was sent after it fell due: schedule slip in the
  /// open loop, client turnaround in the closed loops.
  std::vector<double> gen_lag_us;
};

struct TrafficContext {
  const Pool& pool;
  Stack& stack;
  const Memo& memo;
  std::uint64_t seed;
  WindowPlan plan;
  SpanSink* spans;        ///< null = untraced
  bool trace_in_process;  ///< attach obs::Trace to in-process submits
};

struct WorkloadSpec {
  const char* name;
  Front front;
  Kind scans;  ///< the class its Wi-Fi scans are sent as (kFix or kBulk)
  TrafficResult (*run)(const TrafficContext&);  ///< warm-up + windows
  const char* why;
};
const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(const std::string& name);

/// The quality pass: every scan once and every test path streamed through
/// a session, via the workload's front end. Doubles as warm-up.
struct Quality {
  double wifi_error_m = 0.0;
  double track_error_m = 0.0;
  Outcome outcome;
  std::vector<SessionStream> streams;
};
Quality run_quality(const WorkloadSpec& spec, const Pool& pool, Stack& stack, const Memo& memo);

/// Replays every stream serially through a fresh TrackingSession; returns
/// the number of fixes that differ from what was served.
std::uint64_t replay_sessions(const noble::serve::ImuLocalizer& imu, const Pool& pool,
                              const std::vector<SessionStream>& streams);

// --- the ladder ----------------------------------------------------------------

/// Times each layer's public entry point at batch 1/8/32 over the query set
/// and adds `kernels.*`, `serve.*`, `engine/fleet/gateway/cluster.*_us.bN`,
/// `obs.scrape_us` and the gateway-rung stage medians to `layers`. Any
/// served fix that differs from the memo is counted into `mismatches`.
void run_ladder(const Pool& pool, const Stack& stack, const Memo& memo, SpanSink* spans,
                MetricMap& layers, std::uint64_t* mismatches,
                noble::gateway::GatewayCounters* wire);

// --- self-test -----------------------------------------------------------------

/// Checks the generator and the statistics on synthetic data; no training.
int run_self_test();

}  // namespace ledger

#endif  // BENCH_LEDGER_LEDGER_H_
