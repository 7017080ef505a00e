// noble::obs — the unified metrics layer every serving tier reports into.
//
// Two instrument kinds cover the stack's registered telemetry:
//  * Counter   — monotonic event totals (requests, rejections, expiries).
//    Increments land on a thread-striped array of cache-line-separated
//    atomics, so the hot path is one relaxed fetch_add with no sharing
//    between submitter threads; `value()` folds the stripes on the (cold)
//    scrape path.
//  * HistogramMetric — a sharded `noble::Histogram` (distribution of
//    latencies / batch sizes) with per-shard locking so concurrent
//    `record()` calls from worker threads rarely contend.
// Point-in-time levels (queue depths, latency quantiles) are not
// instruments: whoever owns the state writes them into a snapshot as gauge
// samples at scrape time.
//
// A `Registry` owns named instruments keyed by (name, label set) and turns
// them into a `MetricsSnapshot`: a flat, ordered list of samples that
// renders to either exposition format:
//  * `render_prometheus`  — the plaintext scrape page (`name{k="v"} value`),
//    field-compatible with the former hand-assembled `Gateway::stats_text`;
//  * `encode_snapshot` / `decode_snapshot` — a versioned binary image on the
//    repo-wide `ByteWriter`/`ByteReader` codec, carrying full histogram bin
//    data (not just summary quantiles) so a remote scraper can merge,
//    window-delta, or re-quantile without loss.
//
// Instruments whose lifetime matches the process register in
// `Registry::global()` (the tracer's stage histograms live there). Tiers
// that exist many-per-process (engines, gateways — unit tests stand up
// dozens per binary) keep their instruments as *members* and splice their
// samples into a snapshot at scrape time, so one test's traffic never
// bleeds into another's scrape page.
#ifndef NOBLE_OBS_METRICS_H_
#define NOBLE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stats.h"

namespace noble::obs {

/// Label set attached to an instrument, rendered in insertion order
/// (`{shard="bldg-A",engine="0"}`). Keep label cardinality bounded — every
/// distinct label set is a distinct instrument.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic counter with thread-striped increments. Each thread hashes to
/// one of `kStripes` cache-line-aligned atomics; `value()` sums them with
/// relaxed loads. `add`/`sub` may make an individual stripe wrap below zero
/// (an admission rollback on a different thread than the admit), but the
/// mod-2^64 stripe sum is always exact.
class Counter {
 public:
  static constexpr std::size_t kStripes = 8;

  void inc(std::uint64_t n = 1) { stripe().fetch_add(n, std::memory_order_relaxed); }
  void sub(std::uint64_t n = 1) { stripe().fetch_sub(n, std::memory_order_relaxed); }

  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const auto& s : stripes_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> v{0};
  };

  std::atomic<std::uint64_t>& stripe() {
    // One stripe per thread, assigned round-robin on first touch: stable,
    // cheap (a thread_local read), and collision-free up to kStripes threads.
    static std::atomic<std::uint32_t> next_slot{0};
    thread_local std::uint32_t slot = next_slot.fetch_add(1, std::memory_order_relaxed);
    return stripes_[slot % kStripes].v;
  }

  Stripe stripes_[kStripes];
};

/// Distribution instrument: a `noble::Histogram` striped across shards,
/// each behind its own mutex. Worker threads recording into different
/// shards never contend; `snapshot()` merges all shards under their locks.
class HistogramMetric {
 public:
  static constexpr std::size_t kShards = 4;

  /// `layout` fixes the bin structure for every shard (all shards must
  /// share it so the merge in snapshot() is exact).
  explicit HistogramMetric(const Histogram& layout);

  void record(double x);

  /// Merged view of all shards at one instant per shard (shards are locked
  /// in turn, not globally, so a concurrent record may land between shard
  /// visits — totals are eventually consistent, never torn).
  Histogram snapshot() const;

 private:
  struct Shard {
    mutable std::mutex mu;
    Histogram hist;
    explicit Shard(const Histogram& layout) : hist(layout) {}
  };
  std::vector<std::unique_ptr<Shard>> shards_;
};

enum class Kind : std::uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };

/// One exposition sample: a named value with labels. Counters carry
/// `counter_value` (rendered as a bare integer), gauges `gauge_value`
/// (rendered `%.1f`, or as a bare integer when `integer_gauge` — queue
/// depths keep the former page's shape), histograms a full
/// `noble::Histogram`.
struct MetricSample {
  std::string name;
  Labels labels;
  Kind kind = Kind::kCounter;
  std::uint64_t counter_value = 0;
  double gauge_value = 0.0;
  bool integer_gauge = false;
  std::optional<Histogram> hist;
};

/// Flat ordered sample list — the unit of exposition. Build one per scrape;
/// samples render in insertion order.
struct MetricsSnapshot {
  std::vector<MetricSample> samples;

  void counter(std::string name, std::uint64_t value, Labels labels = {});
  void gauge(std::string name, double value, Labels labels = {});
  /// Integer-valued gauge (queue depths, window sizes): semantically a
  /// level, rendered as a bare integer like the former scrape page did.
  void gauge_int(std::string name, std::uint64_t value, Labels labels = {});
  void histogram(std::string name, Histogram hist, Labels labels = {});

  /// Appends every sample of `other` (registry samples after tier-local
  /// ones, say).
  void append(const MetricsSnapshot& other);

  /// First sample with this name (and labels, when given); nullptr if none.
  const MetricSample* find(std::string_view name) const;
  const MetricSample* find(std::string_view name, const Labels& labels) const;
};

/// Owner of named instruments. Instantiable for tests; `global()` is the
/// process-wide instance where process-lifetime instruments (the tracer's
/// stage histograms) live.
///
/// `counter`/`histogram` register on first use and return the same
/// instrument for the same (name, labels) thereafter — callers keep the
/// returned reference and hit it lock-free. Kind collisions on a name+label
/// key are a programming error (checked).
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  static Registry& global();

  Counter& counter(std::string name, Labels labels = {});
  HistogramMetric& histogram(std::string name, const Histogram& layout, Labels labels = {});

  /// Samples every registered instrument (registration order). Each
  /// instrument is read at its own instant — the snapshot is a consistent
  /// *per-instrument* view, not a global atomic cut.
  MetricsSnapshot collect() const;

 private:
  struct Instrument {
    std::string name;
    Labels labels;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<HistogramMetric> hist;
  };

  Instrument& find_or_create(std::string name, Labels labels, Kind kind,
                             const Histogram* layout);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Instrument>> instruments_;
};

/// Prometheus-style text exposition. Counters and integer gauges render as
/// bare integers, float gauges as `%.1f` — both exactly as the former
/// hand-assembled scrape page did (existing test needles keep matching).
/// Histograms render summary-style: `name{quantile="0.5"} v` (p50/p95/p99)
/// plus `name_sum` / `name_count`, with instrument labels merged in before
/// the quantile label.
std::string render_prometheus(const MetricsSnapshot& snapshot);

/// Versioned binary exposition on the repo codec. Carries full histogram
/// bin data so the scraper can delta and re-quantile. Layout: u32 magic
/// ("NOBM" | version), u64 sample count, then per sample: name, labels,
/// kind tag, kind-specific payload.
std::string encode_snapshot(const MetricsSnapshot& snapshot);

/// Decodes an `encode_snapshot` image. Returns nullopt on bad magic,
/// unsupported version, truncation, or trailing bytes.
std::optional<MetricsSnapshot> decode_snapshot(std::string_view bytes);

}  // namespace noble::obs

#endif  // NOBLE_OBS_METRICS_H_
