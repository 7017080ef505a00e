// Descriptive statistics used by the evaluation harness and benchmarks.
#ifndef NOBLE_COMMON_STATS_H_
#define NOBLE_COMMON_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace noble {

/// Arithmetic mean; 0 for an empty input.
double mean(const std::vector<double>& v);

/// Population variance; 0 for inputs with fewer than 2 elements.
double variance(const std::vector<double>& v);

/// Population standard deviation.
double stddev(const std::vector<double>& v);

/// Median (average of the two middle elements for even sizes). Copies input.
double median(std::vector<double> v);

/// q-th percentile with linear interpolation, q in [0, 100]. Copies input.
double percentile(std::vector<double> v, double q);

/// Root mean square of the values.
double rms(const std::vector<double>& v);

/// Minimum; +inf for empty input.
double min_value(const std::vector<double>& v);

/// Maximum; -inf for empty input.
double max_value(const std::vector<double>& v);

/// Fixed-layout histogram with log-spaced bins: constant-memory percentile
/// estimation for streams too large (or too concurrent) to keep as samples.
///
/// The layout is frozen at construction: `num_bins` bins covering [lo, hi)
/// with geometrically equal widths, plus an underflow bin (x < lo, zero and
/// negative values included) and an overflow bin (x >= hi). Two histograms
/// with the same layout can be `merge`d — per-thread recording with one
/// combine at the end needs no locks.
///
/// `percentile` interpolates geometrically inside the covering bin and is
/// clamped to the exact recorded min/max, so its error is bounded by one
/// bin's width ratio: a factor of (hi/lo)^(1/num_bins) of the exact sample
/// percentile for in-range data (see test_common_stats cross-checks).
class Histogram {
 public:
  /// Layout: num_bins log-spaced bins over [lo, hi). Requires
  /// 0 < lo < hi and num_bins >= 1.
  Histogram(double lo, double hi, std::size_t num_bins);

  /// Latency layout shared by the serving benches and the engine telemetry:
  /// 1 us .. 10 s in 140 bins (~12% relative resolution per bin).
  static Histogram latency_us() { return Histogram(1.0, 1e7, 140); }

  /// Micro-batch-size layout: 1 .. 4096 in 48 bins.
  static Histogram batch_sizes() { return Histogram(1.0, 4096.0, 48); }

  /// Rebuilds a histogram from its serialized parts (the obs metrics
  /// snapshot codec round-trips histograms through this). `counts` must be
  /// num_bins + 2 entries ([under, bins, over], exactly the bin_count /
  /// underflow_count / overflow_count view).
  static Histogram from_parts(double lo, double hi, std::size_t num_bins,
                              std::vector<std::uint64_t> counts, std::uint64_t total,
                              double sum, double min_rec, double max_rec);

  /// Adds one observation. Values below `lo` (including 0 and negatives)
  /// land in the underflow bin; values >= `hi` in the overflow bin. NaN is
  /// not an observation and is ignored (count() excluded).
  void record(double x);

  /// Adds another histogram's counts. Precondition: identical layout.
  void merge(const Histogram& other);

  /// Removes another histogram's counts — the windowed delta view a bench
  /// takes between two snapshots of one growing histogram. Preconditions:
  /// identical layout and `other` is an earlier snapshot of this stream
  /// (every bin of `other` <= the matching bin here). The recorded extrema
  /// stay at their cumulative values (a removed observation may have been
  /// the min/max), so percentile clamping is merely conservative, not wrong.
  void subtract(const Histogram& other);

  /// Exact sum of all recorded values (mean() * count(), tracked exactly).
  double sum_recorded() const { return sum_; }

  /// Observations recorded so far.
  std::uint64_t count() const { return total_; }

  /// q-th percentile estimate, q in [0, 100]; 0 when empty. Exact at the
  /// tails (clamped to recorded min/max), within one bin ratio elsewhere.
  double percentile(double q) const;

  /// Exact mean of all recorded values (tracked outside the bins).
  double mean() const;

  /// Exact recorded extrema; +inf / -inf when empty.
  double min_recorded() const { return min_rec_; }
  double max_recorded() const { return max_rec_; }

  /// Layout accessors (bin 0..num_bins()-1; excludes under/overflow bins).
  std::size_t num_bins() const { return counts_.size() - 2; }
  double lower_bound() const { return lo_; }
  double upper_bound() const { return hi_; }
  double bin_lower(std::size_t i) const;
  double bin_upper(std::size_t i) const { return bin_lower(i + 1); }
  std::uint64_t bin_count(std::size_t i) const { return counts_[i + 1]; }
  std::uint64_t underflow_count() const { return counts_.front(); }
  std::uint64_t overflow_count() const { return counts_.back(); }

  /// True when the other histogram has an identical bin layout.
  bool same_layout(const Histogram& other) const;

 private:
  double lo_;
  double hi_;
  double log_lo_;
  double inv_log_step_;  ///< num_bins / (log(hi) - log(lo))
  std::vector<std::uint64_t> counts_;  ///< [under, bin 0..n-1, over]
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
  double min_rec_;
  double max_rec_;
};

/// The percentile triple every serving surface reports. Computed from a
/// latency Histogram when read, never stored beside it, so the scrape
/// page, examples and bench tables all summarize the same way.
struct LatencySummary {
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
};

/// p50/p95/p99 of a latency histogram (zeros when empty).
LatencySummary summarize_latency_us(const Histogram& h);

/// Online mean/variance accumulator (Welford).
class RunningStats {
 public:
  /// Adds one observation.
  void push(double x);
  /// Number of observations so far.
  std::size_t count() const { return n_; }
  /// Mean of observations so far (0 if none).
  double mean() const { return mean_; }
  /// Sample variance (n-1 denominator; 0 for fewer than 2 observations).
  double variance() const;
  /// Sample standard deviation.
  double stddev() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace noble

#endif  // NOBLE_COMMON_STATS_H_
