#include "obs/metrics.h"

#include <cstdio>

#include "common/check.h"
#include "nn/serialize.h"

namespace noble::obs {

namespace {

// "NOBM" tag in the high three bytes | format version in the low byte,
// mirroring the gateway wire magic ("NGW" | version) convention.
constexpr std::uint32_t kSnapshotTag = 0x4E424D00u;  // 'N' 'B' 'M' in a u32
constexpr std::uint32_t kSnapshotVersion = 1;
constexpr std::uint32_t kSnapshotMagic = kSnapshotTag | kSnapshotVersion;

std::string render_labels(const Labels& labels) {
  if (labels.empty()) return {};
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ',';
    out += labels[i].first;
    out += "=\"";
    out += labels[i].second;
    out += '"';
  }
  out += '}';
  return out;
}

void append_line_u64(std::string& out, const std::string& name, const Labels& labels,
                     std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, " %llu\n", static_cast<unsigned long long>(value));
  out += name;
  out += render_labels(labels);
  out += buf;
}

void append_line_f(std::string& out, const std::string& name, const Labels& labels,
                   double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, " %.1f\n", value);
  out += name;
  out += render_labels(labels);
  out += buf;
}

}  // namespace

HistogramMetric::HistogramMetric(const Histogram& layout) {
  shards_.reserve(kShards);
  for (std::size_t i = 0; i < kShards; ++i) {
    shards_.push_back(std::make_unique<Shard>(layout));
  }
}

void HistogramMetric::record(double x) {
  // Same round-robin thread striping as Counter: a worker always hits the
  // same shard, two workers rarely share one.
  static std::atomic<std::uint32_t> next_slot{0};
  thread_local std::uint32_t slot = next_slot.fetch_add(1, std::memory_order_relaxed);
  Shard& shard = *shards_[slot % kShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.hist.record(x);
}

Histogram HistogramMetric::snapshot() const {
  Histogram out = [&] {
    std::lock_guard<std::mutex> lock(shards_[0]->mu);
    return shards_[0]->hist;
  }();
  for (std::size_t i = 1; i < shards_.size(); ++i) {
    std::lock_guard<std::mutex> lock(shards_[i]->mu);
    out.merge(shards_[i]->hist);
  }
  return out;
}

void MetricsSnapshot::counter(std::string name, std::uint64_t value, Labels labels) {
  MetricSample s;
  s.name = std::move(name);
  s.labels = std::move(labels);
  s.kind = Kind::kCounter;
  s.counter_value = value;
  samples.push_back(std::move(s));
}

void MetricsSnapshot::gauge(std::string name, double value, Labels labels) {
  MetricSample s;
  s.name = std::move(name);
  s.labels = std::move(labels);
  s.kind = Kind::kGauge;
  s.gauge_value = value;
  samples.push_back(std::move(s));
}

void MetricsSnapshot::gauge_int(std::string name, std::uint64_t value, Labels labels) {
  gauge(std::move(name), static_cast<double>(value), std::move(labels));
  samples.back().integer_gauge = true;
}

void MetricsSnapshot::histogram(std::string name, Histogram hist, Labels labels) {
  MetricSample s;
  s.name = std::move(name);
  s.labels = std::move(labels);
  s.kind = Kind::kHistogram;
  s.hist = std::move(hist);
  samples.push_back(std::move(s));
}

void MetricsSnapshot::append(const MetricsSnapshot& other) {
  samples.insert(samples.end(), other.samples.begin(), other.samples.end());
}

const MetricSample* MetricsSnapshot::find(std::string_view name) const {
  for (const MetricSample& s : samples) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const MetricSample* MetricsSnapshot::find(std::string_view name,
                                          const Labels& labels) const {
  for (const MetricSample& s : samples) {
    if (s.name == name && s.labels == labels) return &s;
  }
  return nullptr;
}

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

Registry::Instrument& Registry::find_or_create(std::string name, Labels labels, Kind kind,
                                               const Histogram* layout) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& inst : instruments_) {
    if (inst->name == name && inst->labels == labels) {
      NOBLE_EXPECTS(inst->kind == kind);
      return *inst;
    }
  }
  auto inst = std::make_unique<Instrument>();
  inst->name = std::move(name);
  inst->labels = std::move(labels);
  inst->kind = kind;
  if (kind == Kind::kCounter) {
    inst->counter = std::make_unique<Counter>();
  } else {
    inst->hist = std::make_unique<HistogramMetric>(*layout);
  }
  instruments_.push_back(std::move(inst));
  return *instruments_.back();
}

Counter& Registry::counter(std::string name, Labels labels) {
  return *find_or_create(std::move(name), std::move(labels), Kind::kCounter, nullptr)
              .counter;
}

HistogramMetric& Registry::histogram(std::string name, const Histogram& layout,
                                     Labels labels) {
  return *find_or_create(std::move(name), std::move(labels), Kind::kHistogram, &layout)
              .hist;
}

MetricsSnapshot Registry::collect() const {
  // Sample instruments outside the registry lock: instruments are never
  // removed and the vector only grows, so copy the stable views first, then
  // drop the lock and let registration proceed during the scrape.
  std::vector<const Instrument*> instruments;
  {
    std::lock_guard<std::mutex> lock(mu_);
    instruments.reserve(instruments_.size());
    for (const auto& inst : instruments_) instruments.push_back(inst.get());
  }
  MetricsSnapshot out;
  out.samples.reserve(instruments.size());
  for (const Instrument* inst : instruments) {
    if (inst->kind == Kind::kCounter) {
      out.counter(inst->name, inst->counter->value(), inst->labels);
    } else {
      out.histogram(inst->name, inst->hist->snapshot(), inst->labels);
    }
  }
  return out;
}

std::string render_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  out.reserve(snapshot.samples.size() * 48);
  for (const MetricSample& s : snapshot.samples) {
    switch (s.kind) {
      case Kind::kCounter:
        append_line_u64(out, s.name, s.labels, s.counter_value);
        break;
      case Kind::kGauge:
        // Integer levels (queue depths, window sizes) print as bare
        // integers, continuous ones as %.1f — the page stays byte-shaped
        // like the former hand-assembled one.
        if (s.integer_gauge) {
          append_line_u64(out, s.name, s.labels,
                          static_cast<std::uint64_t>(s.gauge_value));
        } else {
          append_line_f(out, s.name, s.labels, s.gauge_value);
        }
        break;
      case Kind::kHistogram: {
        const Histogram& h = *s.hist;
        const LatencySummary q = summarize_latency_us(h);
        for (const auto& [quantile, value] :
             {std::pair<const char*, double>{"0.5", q.p50_us},
              {"0.95", q.p95_us},
              {"0.99", q.p99_us}}) {
          Labels labels = s.labels;
          labels.emplace_back("quantile", quantile);
          append_line_f(out, s.name, labels, value);
        }
        append_line_f(out, s.name + "_sum", s.labels, h.sum_recorded());
        append_line_u64(out, s.name + "_count", s.labels, h.count());
        break;
      }
    }
  }
  return out;
}

std::string encode_snapshot(const MetricsSnapshot& snapshot) {
  nn::ByteWriter w;
  w.u32(kSnapshotMagic);
  w.u64(snapshot.samples.size());
  for (const MetricSample& s : snapshot.samples) {
    w.str(s.name);
    w.u64(s.labels.size());
    for (const auto& [k, v] : s.labels) {
      w.str(k);
      w.str(v);
    }
    w.u8(static_cast<std::uint8_t>(s.kind));
    switch (s.kind) {
      case Kind::kCounter: w.u64(s.counter_value); break;
      case Kind::kGauge:
        w.f64(s.gauge_value);
        w.u8(s.integer_gauge ? 1 : 0);
        break;
      case Kind::kHistogram: {
        const Histogram& h = *s.hist;
        w.f64(h.lower_bound());
        w.f64(h.upper_bound());
        w.u64(h.num_bins());
        w.u64(h.underflow_count());
        for (std::size_t i = 0; i < h.num_bins(); ++i) w.u64(h.bin_count(i));
        w.u64(h.overflow_count());
        w.u64(h.count());
        w.f64(h.sum_recorded());
        w.f64(h.min_recorded());
        w.f64(h.max_recorded());
        break;
      }
    }
  }
  return w.take();
}

std::optional<MetricsSnapshot> decode_snapshot(std::string_view bytes) {
  nn::ByteReader r(bytes);
  std::uint32_t magic = 0;
  if (!r.u32(magic) || magic != kSnapshotMagic) return std::nullopt;
  std::uint64_t count = 0;
  if (!r.u64(count)) return std::nullopt;
  // Each sample costs at least ~11 bytes on the wire; a count that cannot
  // fit the payload is a lying header, not a big snapshot.
  if (count > bytes.size()) return std::nullopt;
  MetricsSnapshot out;
  out.samples.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    MetricSample s;
    if (!r.str(s.name)) return std::nullopt;
    std::uint64_t num_labels = 0;
    if (!r.u64(num_labels) || num_labels > bytes.size()) return std::nullopt;
    s.labels.reserve(num_labels);
    for (std::uint64_t l = 0; l < num_labels; ++l) {
      std::string k, v;
      if (!r.str(k) || !r.str(v)) return std::nullopt;
      s.labels.emplace_back(std::move(k), std::move(v));
    }
    std::uint8_t kind = 0;
    if (!r.u8(kind) || kind > static_cast<std::uint8_t>(Kind::kHistogram)) {
      return std::nullopt;
    }
    s.kind = static_cast<Kind>(kind);
    switch (s.kind) {
      case Kind::kCounter:
        if (!r.u64(s.counter_value)) return std::nullopt;
        break;
      case Kind::kGauge: {
        std::uint8_t integral = 0;
        if (!r.f64(s.gauge_value) || !r.u8(integral) || integral > 1) return std::nullopt;
        s.integer_gauge = integral == 1;
        break;
      }
      case Kind::kHistogram: {
        double lo = 0.0, hi = 0.0;
        std::uint64_t num_bins = 0;
        if (!r.f64(lo) || !r.f64(hi) || !r.u64(num_bins)) return std::nullopt;
        if (!(lo > 0.0) || !(hi > lo) || num_bins == 0 || num_bins > bytes.size()) {
          return std::nullopt;
        }
        std::vector<std::uint64_t> counts(num_bins + 2, 0);
        for (auto& c : counts) {
          if (!r.u64(c)) return std::nullopt;
        }
        std::uint64_t total = 0;
        double sum = 0.0, min_rec = 0.0, max_rec = 0.0;
        if (!r.u64(total) || !r.f64(sum) || !r.f64(min_rec) || !r.f64(max_rec)) {
          return std::nullopt;
        }
        s.hist = Histogram::from_parts(lo, hi, num_bins, std::move(counts), total, sum,
                                       min_rec, max_rec);
        break;
      }
    }
    out.samples.push_back(std::move(s));
  }
  if (!r.exhausted()) return std::nullopt;
  return out;
}

}  // namespace noble::obs
