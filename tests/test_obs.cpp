// Tests for noble::obs — metrics registry, exposition codecs, and the
// stage-clock invariants. Carries the `concurrency` CTest label: several
// tests hammer instruments from real threads so the TSan job exercises the
// striped/sharded/seqlock paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace noble::obs {
namespace {

// --- Counter / HistogramMetric primitives -----------------------------------

TEST(ObsCounter, StripedIncrementsSumExactly) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(ObsCounter, SubFromDifferentThreadStaysExact) {
  // The admission-rollback pattern: one thread admits (inc), another rolls
  // back (sub). Individual stripes may wrap below zero; the folded sum is
  // exact mod 2^64, which for a balanced workload means exact, period.
  Counter c;
  constexpr std::uint64_t kOps = 50000;
  std::thread adder([&c] {
    for (std::uint64_t i = 0; i < kOps; ++i) c.inc(2);
  });
  std::thread subber([&c] {
    for (std::uint64_t i = 0; i < kOps; ++i) c.sub(1);
  });
  adder.join();
  subber.join();
  EXPECT_EQ(c.value(), kOps);
}

TEST(ObsHistogramMetric, ConcurrentRecordsAllLand) {
  HistogramMetric h(Histogram::latency_us());
  constexpr int kThreads = 6;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      Rng rng(0x700 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kPerThread; ++i) h.record(rng.uniform(10.0, 5000.0));
    });
  }
  for (auto& th : threads) th.join();
  const Histogram snap = h.snapshot();
  EXPECT_EQ(snap.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_GE(snap.min_recorded(), 10.0);
  EXPECT_LE(snap.max_recorded(), 5000.0);
}

// --- Histogram from_parts / subtract -----------------------------------------

TEST(ObsHistogram, FromPartsRoundTripsThroughAccessors) {
  Histogram h = Histogram::latency_us();
  Rng rng(41);
  for (int i = 0; i < 1000; ++i) h.record(rng.uniform(0.5, 2e7));  // spills both tails
  std::vector<std::uint64_t> counts;
  counts.push_back(h.underflow_count());
  for (std::size_t i = 0; i < h.num_bins(); ++i) counts.push_back(h.bin_count(i));
  counts.push_back(h.overflow_count());
  const Histogram rebuilt = Histogram::from_parts(
      h.lower_bound(), h.upper_bound(), h.num_bins(), std::move(counts), h.count(),
      h.sum_recorded(), h.min_recorded(), h.max_recorded());
  EXPECT_TRUE(rebuilt.same_layout(h));
  EXPECT_EQ(rebuilt.count(), h.count());
  EXPECT_DOUBLE_EQ(rebuilt.sum_recorded(), h.sum_recorded());
  EXPECT_DOUBLE_EQ(rebuilt.percentile(50.0), h.percentile(50.0));
  EXPECT_DOUBLE_EQ(rebuilt.percentile(99.0), h.percentile(99.0));
}

TEST(ObsHistogram, SubtractYieldsWindowDelta) {
  // The bench pattern: snapshot a growing histogram twice, subtract, and the
  // delta describes only the observations in between.
  Histogram h = Histogram::latency_us();
  for (int i = 0; i < 100; ++i) h.record(100.0);
  const Histogram before = h;
  for (int i = 0; i < 300; ++i) h.record(4000.0);
  Histogram delta = h;
  delta.subtract(before);
  EXPECT_EQ(delta.count(), 300u);
  EXPECT_DOUBLE_EQ(delta.sum_recorded(), 300 * 4000.0);
  // All delta mass sits near 4000us; p50 must land in that bin's range, far
  // from the 100us mass that was subtracted out.
  EXPECT_GT(delta.percentile(50.0), 1000.0);
}

TEST(ObsHistogram, SubtractToEmptyResets) {
  Histogram h = Histogram::latency_us();
  h.record(50.0);
  h.record(200.0);
  Histogram delta = h;
  delta.subtract(h);
  EXPECT_EQ(delta.count(), 0u);
  EXPECT_DOUBLE_EQ(delta.sum_recorded(), 0.0);
  EXPECT_DOUBLE_EQ(delta.percentile(50.0), 0.0);
}

// --- Registry ----------------------------------------------------------------

TEST(ObsRegistry, SameNameAndLabelsReturnsSameInstrument) {
  Registry reg;
  Counter& a = reg.counter("noble_test_total");
  Counter& b = reg.counter("noble_test_total");
  EXPECT_EQ(&a, &b);
  Counter& labeled = reg.counter("noble_test_total", {{"shard", "A"}});
  EXPECT_NE(&a, &labeled);
  a.inc(3);
  labeled.inc(5);
  const MetricsSnapshot snap = reg.collect();
  const MetricSample* bare = snap.find("noble_test_total", {});
  const MetricSample* with = snap.find("noble_test_total", {{"shard", "A"}});
  ASSERT_NE(bare, nullptr);
  ASSERT_NE(with, nullptr);
  EXPECT_EQ(bare->counter_value, 3u);
  EXPECT_EQ(with->counter_value, 5u);
}

TEST(ObsRegistry, CollectDuringConcurrentIncrements) {
  // The scrape path must be safe (and monotone for counters) while worker
  // threads are mid-increment. Collected counter values may lag but never
  // tear or go backwards across successive collects.
  Registry reg;
  Counter& hits = reg.counter("noble_hits");
  HistogramMetric& lat = reg.histogram("noble_lat_us", Histogram::latency_us());
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&hits, &lat, &stop, t] {
      Rng rng(0x900 + static_cast<std::uint64_t>(t));
      while (!stop.load(std::memory_order_relaxed)) {
        hits.inc();
        lat.record(rng.uniform(1.0, 1e4));
      }
    });
  }
  std::uint64_t last_hits = 0;
  std::uint64_t last_lat = 0;
  // At least 200 collects, then keep collecting (bounded) until the writers
  // have visibly run — on a loaded machine thread startup can lag behind a
  // tight collect loop.
  for (int i = 0; i < 200 || last_hits == 0; ++i) {
    ASSERT_LT(i, 2000000) << "writer threads never ran";
    const MetricsSnapshot snap = reg.collect();
    const MetricSample* h = snap.find("noble_hits");
    const MetricSample* l = snap.find("noble_lat_us");
    ASSERT_NE(h, nullptr);
    ASSERT_NE(l, nullptr);
    ASSERT_TRUE(l->hist.has_value());
    EXPECT_GE(h->counter_value, last_hits);
    EXPECT_GE(l->hist->count(), last_lat);
    last_hits = h->counter_value;
    last_lat = l->hist->count();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : writers) th.join();
  EXPECT_GT(last_hits, 0u);
}

// --- Exposition: Prometheus text ---------------------------------------------

TEST(ObsRender, PrometheusLineShapes) {
  MetricsSnapshot snap;
  snap.counter("noble_requests", 42);
  snap.gauge("noble_p50_us", 123.456);
  snap.gauge_int("noble_queue_depth", 7);
  snap.counter("noble_depth", 3, {{"shard", "bldg-A"}, {"engine", "0"}});
  const std::string page = render_prometheus(snap);
  EXPECT_NE(page.find("noble_requests 42\n"), std::string::npos);
  EXPECT_NE(page.find("noble_p50_us 123.5\n"), std::string::npos);  // %.1f
  EXPECT_NE(page.find("noble_queue_depth 7\n"), std::string::npos);  // bare int
  EXPECT_NE(page.find("noble_depth{shard=\"bldg-A\",engine=\"0\"} 3\n"),
            std::string::npos);
}

TEST(ObsRender, PrometheusHistogramQuantiles) {
  Histogram h = Histogram::latency_us();
  for (int i = 0; i < 100; ++i) h.record(200.0);
  MetricsSnapshot snap;
  snap.histogram("noble_stage_latency_us", h, {{"stage", "compute"}});
  const std::string page = render_prometheus(snap);
  EXPECT_NE(page.find("noble_stage_latency_us{stage=\"compute\",quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(page.find("noble_stage_latency_us{stage=\"compute\",quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(page.find("noble_stage_latency_us_sum{stage=\"compute\"}"),
            std::string::npos);
  EXPECT_NE(page.find("noble_stage_latency_us_count{stage=\"compute\"} 100\n"),
            std::string::npos);
}

// --- Exposition: binary snapshot codec ---------------------------------------

TEST(ObsCodec, SnapshotRoundTripPreservesEverySample) {
  Histogram h = Histogram::latency_us();
  Rng rng(97);
  for (int i = 0; i < 500; ++i) h.record(rng.uniform(2.0, 1e6));
  MetricsSnapshot snap;
  snap.counter("noble_total", 99, {{"cls", "interactive"}});
  snap.gauge("noble_level", -2.25);
  snap.gauge_int("noble_depth", 11);
  snap.histogram("noble_lat_us", h);
  const std::string bytes = encode_snapshot(snap);
  const std::optional<MetricsSnapshot> decoded = decode_snapshot(bytes);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->samples.size(), snap.samples.size());
  const MetricSample* c = decoded->find("noble_total", {{"cls", "interactive"}});
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->counter_value, 99u);
  const MetricSample* g = decoded->find("noble_level");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->gauge_value, -2.25);
  EXPECT_FALSE(g->integer_gauge);
  const MetricSample* d = decoded->find("noble_depth");
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->integer_gauge);
  const MetricSample* hs = decoded->find("noble_lat_us");
  ASSERT_NE(hs, nullptr);
  ASSERT_TRUE(hs->hist.has_value());
  EXPECT_TRUE(hs->hist->same_layout(h));
  EXPECT_EQ(hs->hist->count(), h.count());
  EXPECT_DOUBLE_EQ(hs->hist->sum_recorded(), h.sum_recorded());
  EXPECT_DOUBLE_EQ(hs->hist->percentile(50.0), h.percentile(50.0));
  EXPECT_DOUBLE_EQ(hs->hist->min_recorded(), h.min_recorded());
  EXPECT_DOUBLE_EQ(hs->hist->max_recorded(), h.max_recorded());
  // Binary and text expositions describe the same snapshot.
  EXPECT_EQ(render_prometheus(*decoded), render_prometheus(snap));
}

TEST(ObsCodec, DecodeRejectsGarbage) {
  MetricsSnapshot snap;
  snap.counter("noble_x", 1);
  const std::string bytes = encode_snapshot(snap);
  EXPECT_FALSE(decode_snapshot("").has_value());
  EXPECT_FALSE(decode_snapshot("not a snapshot").has_value());
  // Every truncation point must fail cleanly, never crash or misparse.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(decode_snapshot(std::string_view(bytes).substr(0, cut)).has_value())
        << "truncation at " << cut << " decoded";
  }
  // Trailing bytes are rejected too (exhausted() contract).
  EXPECT_FALSE(decode_snapshot(bytes + "x").has_value());
  // Corrupt magic.
  std::string bad = bytes;
  bad[0] ^= 0x5a;
  EXPECT_FALSE(decode_snapshot(bad).has_value());
}

// --- Trace stage clock -------------------------------------------------------

Trace make_full_trace(Rng& rng, bool with_recv) {
  Trace trace;
  trace.id = rng.next_u64();
  std::uint64_t ns = 1 + rng.next_u64() % 1000000;
  for (std::size_t m = 0; m < kNumMarks; ++m) {
    if (m == static_cast<std::size_t>(Mark::kRecv) && !with_recv) continue;
    trace.stamp(static_cast<Mark>(m), ns);
    ns += 1 + rng.next_u64() % 500000;  // strictly increasing marks
  }
  return trace;
}

TEST(ObsTrace, StageSumTelescopesToEndToEnd) {
  // With every mark present the stage durations telescope: their sum IS the
  // e2e span, exactly. With kRecv absent (in-process submission) the decode
  // stage is undefined and the remaining stages still telescope to e2e.
  Rng rng(314);
  for (int trial = 0; trial < 100; ++trial) {
    for (const bool with_recv : {true, false}) {
      const Trace trace = make_full_trace(rng, with_recv);
      double sum_us = 0.0;
      for (std::size_t s = 0; s < kNumStages; ++s) {
        const double us = trace.stage_us(static_cast<Stage>(s));
        if (s == static_cast<std::size_t>(Stage::kDecode) && !with_recv) {
          EXPECT_LT(us, 0.0);
          continue;
        }
        ASSERT_GE(us, 0.0);
        sum_us += us;
      }
      const double e2e = trace.e2e_us();
      ASSERT_GT(e2e, 0.0);
      EXPECT_NEAR(sum_us, e2e, 1e-6 * e2e + 1e-9);
    }
  }
}

TEST(ObsTrace, UnreachedMarksYieldNegativeStages) {
  Trace trace;
  trace.stamp(Mark::kSubmit, 1000);
  trace.stamp(Mark::kAdmitted, 2000);
  EXPECT_DOUBLE_EQ(trace.stage_us(Stage::kAdmission), 1.0);
  EXPECT_LT(trace.stage_us(Stage::kQueueWait), 0.0);   // no kDequeued
  EXPECT_LT(trace.stage_us(Stage::kCompute), 0.0);
  EXPECT_LT(trace.e2e_us(), 0.0);                      // no kResponded
}

TEST(ObsTracer, FinishFeedsStageHistogramsAndRing) {
  Registry reg;
  Tracer tracer(reg);
  Rng rng(555);
  constexpr int kTraces = 50;
  for (int i = 0; i < kTraces; ++i) tracer.finish(make_full_trace(rng, true));
  const MetricsSnapshot snap = reg.collect();
  for (std::size_t s = 0; s < kNumStages; ++s) {
    const MetricSample* sample = snap.find(
        "noble_stage_latency_us", {{"stage", stage_name(static_cast<Stage>(s))}});
    ASSERT_NE(sample, nullptr) << stage_name(static_cast<Stage>(s));
    ASSERT_TRUE(sample->hist.has_value());
    EXPECT_EQ(sample->hist->count(), static_cast<std::uint64_t>(kTraces));
  }
  const MetricSample* e2e = snap.find("noble_trace_e2e_us");
  ASSERT_NE(e2e, nullptr);
  ASSERT_TRUE(e2e->hist.has_value());
  EXPECT_EQ(e2e->hist->count(), static_cast<std::uint64_t>(kTraces));
  const MetricSample* finished = snap.find("noble_traces_finished");
  ASSERT_NE(finished, nullptr);
  EXPECT_EQ(finished->counter_value, static_cast<std::uint64_t>(kTraces));
}

TEST(ObsTracer, DisabledTracerAllocatesNothing) {
  Registry reg;
  Tracer tracer(reg);
  tracer.set_enabled(false);
  EXPECT_FALSE(tracer.enabled());
  EXPECT_EQ(tracer.start(1), nullptr);
}

TEST(ObsTracer, StageHistogramsOmitUnreachedStages) {
  // An in-process trace (no kRecv) must not contribute a bogus decode
  // sample; only stages with both endpoints stamped are recorded.
  Registry reg;
  Tracer tracer(reg);
  Rng rng(808);
  tracer.finish(make_full_trace(rng, /*with_recv=*/false));
  const MetricsSnapshot snap = reg.collect();
  const MetricSample* decode =
      snap.find("noble_stage_latency_us", {{"stage", "decode"}});
  ASSERT_NE(decode, nullptr);
  ASSERT_TRUE(decode->hist.has_value());
  EXPECT_EQ(decode->hist->count(), 0u);
  const MetricSample* compute =
      snap.find("noble_stage_latency_us", {{"stage", "compute"}});
  ASSERT_NE(compute, nullptr);
  EXPECT_EQ(compute->hist->count(), 1u);
}

}  // namespace
}  // namespace noble::obs
