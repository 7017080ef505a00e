// Admission-control tests: class-aware bounded-queue semantics (priority
// ordering, the bulk cap, deadline expiry — all deterministic), the
// engine-level class/deadline contract (kExpired at submit, a live deadline
// served bit-identically, DeadlineExpired in queue via a deliberately slow
// backend, interactive immunity to a bulk
// flood under reserved headroom), per-class stats coherence across
// EngineStats::merge(), and router spill-vs-affinity equivalence (a bulk
// spill serves bit-identically to the affinity path it bypassed).
//
// The concurrency tests here carry the `concurrency` CTest label and run
// under -DNOBLE_SANITIZE=thread in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/noble_wifi.h"
#include "engine/backend.h"
#include "engine/bounded_queue.h"
#include "engine/engine.h"
#include "fleet/router.h"
#include "parked_workers.h"
#include "serve/wifi_localizer.h"

namespace noble::engine {
namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// BoundedQueue: the deterministic half of class/deadline admission.
// ---------------------------------------------------------------------------

TEST(AdmissionQueue, InteractiveDrainsBeforeBulk) {
  BoundedQueue<int> queue(8);
  EXPECT_EQ(queue.try_push(10, RequestClass::kBulk), PushResult::kOk);
  EXPECT_EQ(queue.try_push(11, RequestClass::kBulk), PushResult::kOk);
  EXPECT_EQ(queue.try_push(1, RequestClass::kInteractive), PushResult::kOk);
  EXPECT_EQ(queue.try_push(2, RequestClass::kInteractive), PushResult::kOk);
  // Bulk arrived first, but interactive owns the front of every batch; bulk
  // fills the remainder in its own FIFO order.
  const auto batch = queue.pop_batch(3);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0], 1);
  EXPECT_EQ(batch[1], 2);
  EXPECT_EQ(batch[2], 10);
  EXPECT_EQ(queue.depth(), 1u);
  EXPECT_EQ(queue.depth(RequestClass::kBulk), 1u);
}

TEST(AdmissionQueue, BulkCapReservesInteractiveHeadroom) {
  BoundedQueue<int> queue(4, /*bulk_cap=*/2);
  EXPECT_EQ(queue.try_push(1, RequestClass::kBulk), PushResult::kOk);
  EXPECT_EQ(queue.try_push(2, RequestClass::kBulk), PushResult::kOk);
  // Bulk holds its 2-slot cap: the flood sheds while half the queue is free.
  EXPECT_EQ(queue.try_push(3, RequestClass::kBulk), PushResult::kFull);
  EXPECT_EQ(queue.try_push(4, RequestClass::kInteractive), PushResult::kOk);
  EXPECT_EQ(queue.try_push(5, RequestClass::kInteractive), PushResult::kOk);
  // Total capacity still binds everyone, interactive included.
  EXPECT_EQ(queue.try_push(6, RequestClass::kInteractive), PushResult::kFull);
  EXPECT_EQ(queue.depth(), 4u);
}

TEST(AdmissionQueue, ExpiredEntriesAreHandedBackNotServed) {
  BoundedQueue<int> queue(8);
  const auto past = Clock::now() - std::chrono::milliseconds(5);
  EXPECT_EQ(queue.try_push(1, RequestClass::kBulk, past), PushResult::kOk);
  EXPECT_EQ(queue.try_push(2, RequestClass::kBulk,
                           Clock::now() + std::chrono::seconds(30)),
            PushResult::kOk);
  std::vector<int> expired;
  const auto batch = queue.pop_batch(8, &expired);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0], 2);  // the live entry
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], 1);
  EXPECT_EQ(queue.depth(), 0u);
}

TEST(AdmissionQueue, AllExpiredPopReturnsWithoutSittingOutTheWindow) {
  BoundedQueue<int> queue(8);
  const auto past = Clock::now() - std::chrono::milliseconds(5);
  EXPECT_EQ(queue.try_push(1, RequestClass::kInteractive, past), PushResult::kOk);
  std::vector<int> expired;
  const auto t0 = Clock::now();
  const auto batch = queue.pop_batch(4, &expired);
  EXPECT_LT(Clock::now() - t0, std::chrono::seconds(5));
  EXPECT_TRUE(batch.empty());
  ASSERT_EQ(expired.size(), 1u);
  // Open queue + empty batch + expired corpses != the shutdown signal.
  EXPECT_FALSE(queue.closed());
}

TEST(AdmissionQueue, NullExpiredListIgnoresDeadlines) {
  BoundedQueue<int> queue(8);
  const auto past = Clock::now() - std::chrono::milliseconds(5);
  EXPECT_EQ(queue.try_push(1, RequestClass::kBulk, past), PushResult::kOk);
  const auto batch = queue.pop_batch(4);
  ASSERT_EQ(batch.size(), 1u);  // served: caller opted out of expiry
}

// ---------------------------------------------------------------------------
// Engine fixtures (mirrors test_engine's sizing, its own seed).
// ---------------------------------------------------------------------------

struct AdmissionFixture {
  core::WifiExperiment exp;
  core::NobleWifiModel model;
};

const AdmissionFixture& admission_fixture() {
  static const AdmissionFixture* fixture = [] {
    core::WifiExperimentConfig cfg;
    cfg.total_samples = 1200;
    cfg.seed = 505;
    auto* f = new AdmissionFixture{core::make_uji_experiment(cfg), core::NobleWifiModel([] {
                                     core::NobleWifiConfig mc;
                                     mc.quantize.tau = 6.0;
                                     mc.quantize.coarse_l = 24.0;
                                     mc.epochs = 6;
                                     mc.hidden_units = 32;
                                     return mc;
                                   }())};
    f->model.fit(f->exp.split.train);
    return f;
  }();
  return *fixture;
}

const serve::WifiLocalizer& reference_localizer() {
  static const serve::WifiLocalizer* localizer = new serve::WifiLocalizer(
      serve::WifiLocalizer::from_model(admission_fixture().model));
  return *localizer;
}

std::vector<serve::RssiVector> query_pool(std::size_t count) {
  const auto& f = admission_fixture();
  std::vector<serve::RssiVector> queries;
  for (std::size_t i = 0; i < count && i < f.exp.split.test.size(); ++i) {
    queries.push_back(f.exp.split.test.samples[i].rssi);
  }
  return queries;
}

bool fixes_identical(const serve::Fix& a, const serve::Fix& b) { return a == b; }

/// fp32 plan backend that sleeps per batch — holds a 1-worker engine busy long
/// enough for a queued deadline to lapse deterministically.
class SlowBackend final : public WifiBackend {
 public:
  SlowBackend(const serve::WifiLocalizer& localizer, std::chrono::milliseconds nap)
      : inner_(localizer), nap_(nap) {}

  std::vector<serve::Fix> locate_batch(
      std::span<const serve::RssiVector> queries) const override {
    std::this_thread::sleep_for(nap_);
    return inner_.locate_batch(queries);
  }
  std::size_t input_dim() const override { return inner_.input_dim(); }
  std::unique_ptr<WifiBackend> clone() const override {
    return std::make_unique<SlowBackend>(inner_localizer(), nap_);
  }
  std::string name() const override { return "slow-dense"; }

 private:
  const serve::WifiLocalizer& inner_localizer() const { return reference_localizer(); }

  PlanBackend inner_;
  std::chrono::milliseconds nap_;
};

// ---------------------------------------------------------------------------
// Engine: deadline verdicts.
// ---------------------------------------------------------------------------

TEST(AdmissionEngine, PastDeadlineIsRefusedAtSubmit) {
  const auto queries = query_pool(1);
  ASSERT_FALSE(queries.empty());
  Engine engine(reference_localizer());

  SubmitOptions late = SubmitOptions::bulk();
  late.deadline = Clock::now() - std::chrono::milliseconds(1);
  const Submission s = engine.submit(queries[0], late);
  EXPECT_EQ(s.status, SubmitStatus::kExpired);
  EXPECT_FALSE(s.result.valid());

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 0u);   // never admitted
  EXPECT_EQ(stats.rejected, 0u);    // expired is its own bucket
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.bulk.expired, 1u);
  EXPECT_EQ(stats.interactive.expired, 0u);
}

TEST(AdmissionEngine, LiveDeadlineIsServedBitIdentically) {
  const auto& localizer = reference_localizer();
  const auto queries = query_pool(1);
  ASSERT_FALSE(queries.empty());
  Engine engine(localizer);

  Submission fresh =
      engine.submit(queries[0], SubmitOptions::interactive().expires_in_us(5'000'000));
  ASSERT_TRUE(fresh.accepted());
  EXPECT_TRUE(fixes_identical(fresh.result.get(), localizer.locate(queries[0])));
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.expired, 0u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(AdmissionEngine, QueuedRequestExpiresBeforeWastingAGemmSlot) {
  const auto& localizer = reference_localizer();
  const auto queries = query_pool(2);
  ASSERT_GE(queries.size(), 2u);
  EngineConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 1;  // the sleeper and the doomed request cannot share a batch
  Engine engine(std::make_unique<SlowBackend>(localizer, std::chrono::milliseconds(50)),
                cfg);

  // A occupies the single worker for ~50 ms; B's 5 ms deadline lapses while
  // it waits behind A and must fail without ever reaching the backend.
  Submission a = engine.submit(queries[0]);
  ASSERT_TRUE(a.accepted());
  Submission b =
      engine.submit(queries[1], SubmitOptions::bulk().expires_in_us(5000));
  ASSERT_TRUE(b.accepted());

  EXPECT_TRUE(fixes_identical(a.result.get(), localizer.locate(queries[0])));
  EXPECT_THROW(b.result.get(), DeadlineExpired);

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 1u);  // only A produced a fix
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.bulk.expired, 1u);
  EXPECT_EQ(stats.batches, 1u);  // B never formed a batch
}

// ---------------------------------------------------------------------------
// Engine: interactive immunity to a bulk flood (concurrent).
// ---------------------------------------------------------------------------

TEST(AdmissionEngine, ReservedHeadroomKeepsInteractiveCleanUnderBulkFlood) {
  const auto& localizer = reference_localizer();
  const auto queries = query_pool(16);
  ASSERT_FALSE(queries.empty());
  std::vector<serve::Fix> expected;
  for (const auto& q : queries) expected.push_back(localizer.locate(q));

  EngineConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 8;
  cfg.queue_cap = 64;
  cfg.bulk_cap = 16;  // 48 slots bulk can never touch
  std::latch parked{1};
  std::latch release{1};
  Engine engine(localizer, cfg);
  // The lone worker parks in a bulk scan's notifier (never do this outside
  // a test) until the flood has overflowed the bulk lane: how fast an
  // unparked worker drains depends on the machine's load, the shed below
  // must not.
  SubmitOptions park = SubmitOptions::bulk();
  park.notify = [&] {
    parked.count_down();
    release.wait();
  };
  ASSERT_TRUE(engine.submit(queries[0], park).accepted());
  parked.wait();

  std::atomic<bool> flooding{true};
  std::atomic<std::uint64_t> bulk_shed{0};
  std::vector<std::thread> flooders;
  for (int f = 0; f < 2; ++f) {
    flooders.emplace_back([&, f] {
      std::vector<std::future<serve::Fix>> inflight;
      std::size_t r = 0;
      while (flooding.load(std::memory_order_relaxed)) {
        Submission s = engine.submit(queries[(f + r++) % queries.size()],
                                     SubmitOptions::bulk());
        if (s.accepted()) {
          inflight.push_back(std::move(s.result));
          if (inflight.size() >= 64) {
            for (auto& fut : inflight) (void)fut.get();
            inflight.clear();
          }
        } else {
          bulk_shed.fetch_add(1, std::memory_order_relaxed);
        }
      }
      for (auto& fut : inflight) (void)fut.get();
    });
  }
  const auto shed_by = Clock::now() + std::chrono::seconds(5);
  while (bulk_shed.load() == 0 && Clock::now() < shed_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  release.count_down();

  // One interactive fix in flight at a time against 48 reserved slots:
  // admission is guaranteed, whatever the flood does.
  int interactive_rejected = 0, mismatches = 0;
  for (int r = 0; r < 200; ++r) {
    const std::size_t q = static_cast<std::size_t>(r) % queries.size();
    Submission s = engine.submit(queries[q]);
    if (!s.accepted()) {
      ++interactive_rejected;
      continue;
    }
    if (!fixes_identical(s.result.get(), expected[q])) ++mismatches;
  }
  flooding.store(false);
  for (auto& f : flooders) f.join();

  EXPECT_EQ(interactive_rejected, 0);
  EXPECT_EQ(mismatches, 0);
  EXPECT_GT(bulk_shed.load(), 0u);  // 2 tight loops vs 16 slots: overload certain
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.interactive.rejected, 0u);
  EXPECT_EQ(stats.bulk.rejected, bulk_shed.load());
  EXPECT_EQ(stats.interactive.accepted, 200u);
}

// ---------------------------------------------------------------------------
// Per-class stats coherence, including across merge().
// ---------------------------------------------------------------------------

TEST(AdmissionStats, ClassCountersPartitionTheTotals) {
  const auto& localizer = reference_localizer();
  const auto queries = query_pool(8);
  ASSERT_FALSE(queries.empty());
  EngineConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 4;
  Engine engine(localizer, cfg);

  std::vector<std::future<serve::Fix>> futures;
  for (int r = 0; r < 12; ++r) {
    Submission s = engine.submit(queries[static_cast<std::size_t>(r) % queries.size()]);
    ASSERT_TRUE(s.accepted());
    futures.push_back(std::move(s.result));
  }
  for (int r = 0; r < 8; ++r) {
    Submission s = engine.submit(queries[static_cast<std::size_t>(r) % queries.size()],
                                 SubmitOptions::bulk());
    ASSERT_TRUE(s.accepted());
    futures.push_back(std::move(s.result));
  }
  SubmitOptions dead = SubmitOptions::bulk();
  dead.deadline = Clock::now() - std::chrono::milliseconds(1);
  EXPECT_EQ(engine.submit(queries[0], dead).status, SubmitStatus::kExpired);
  for (auto& f : futures) (void)f.get();

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.interactive.accepted, 12u);
  EXPECT_EQ(stats.bulk.accepted, 8u);
  EXPECT_EQ(stats.submitted, stats.interactive.accepted + stats.bulk.accepted);
  EXPECT_EQ(stats.bulk.expired, 1u);
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.completed, 20u);
  // Every completion recorded in exactly one class; the total is the merge.
  EXPECT_EQ(stats.interactive.latency_us.count(), 12u);
  EXPECT_EQ(stats.bulk.latency_us.count(), 8u);
  EXPECT_EQ(stats.latency_us.count(), stats.completed);
  const LatencySummary interactive = summarize_latency_us(stats.interactive.latency_us);
  EXPECT_GT(interactive.p50_us, 0.0);
  EXPECT_LE(interactive.p50_us, interactive.p99_us);
}

TEST(AdmissionStats, PerClassCountersSurviveMerge) {
  const auto& localizer = reference_localizer();
  const auto queries = query_pool(4);
  ASSERT_FALSE(queries.empty());
  const auto run = [&](int interactive, int bulk) {
    Engine engine(localizer, EngineConfig{.workers = 1});
    std::vector<std::future<serve::Fix>> futures;
    for (int r = 0; r < interactive; ++r) {
      Submission s = engine.submit(queries[static_cast<std::size_t>(r) % queries.size()]);
      futures.push_back(std::move(s.result));
    }
    for (int r = 0; r < bulk; ++r) {
      Submission s = engine.submit(queries[static_cast<std::size_t>(r) % queries.size()],
                                   SubmitOptions::bulk());
      futures.push_back(std::move(s.result));
    }
    for (auto& f : futures) (void)f.get();
    return engine.stats();
  };

  const EngineStats a = run(5, 3);
  const EngineStats b = run(2, 7);
  EngineStats merged = a;
  merged.merge(b);

  EXPECT_EQ(merged.interactive.accepted, 7u);
  EXPECT_EQ(merged.bulk.accepted, 10u);
  EXPECT_EQ(merged.interactive.latency_us.count(),
            a.interactive.latency_us.count() + b.interactive.latency_us.count());
  EXPECT_EQ(merged.bulk.latency_us.count(),
            a.bulk.latency_us.count() + b.bulk.latency_us.count());
  EXPECT_EQ(merged.latency_us.count(), merged.completed);
  EXPECT_EQ(merged.completed, a.completed + b.completed);
  // Merged per-class percentiles sit inside the per-snapshot extremes.
  const double merged_p99 = merged.bulk.latency_us.percentile(99.0);
  const double a_p99 = a.bulk.latency_us.percentile(99.0);
  const double b_p99 = b.bulk.latency_us.percentile(99.0);
  EXPECT_GE(merged_p99, std::min(a_p99, b_p99));
  EXPECT_LE(merged_p99, std::max(a_p99, b_p99));
}

// ---------------------------------------------------------------------------
// Router: bulk spill vs interactive affinity.
// ---------------------------------------------------------------------------

/// For each engine of `shard_key`, a scan from `pool` whose primary engine
/// it is (empty when the pool has none). A dead-on-arrival submit is tried
/// on the primary engine alone, which counts it as expired — so the expired
/// counters show where the router places each scan.
std::vector<serve::RssiVector> scans_by_primary_engine(
    fleet::Router& router, const std::string& shard_key,
    const std::vector<serve::RssiVector>& pool) {
  std::vector<serve::RssiVector> by_engine(router.shard_engine_stats(shard_key).size());
  for (const serve::RssiVector& scan : pool) {
    const auto before = router.shard_engine_stats(shard_key);
    SubmitOptions dead;
    dead.deadline = Clock::now() - std::chrono::milliseconds(1);
    EXPECT_EQ(router.submit(shard_key, scan, dead).status, SubmitStatus::kExpired);
    const auto after = router.shard_engine_stats(shard_key);
    for (std::size_t e = 0; e < by_engine.size(); ++e) {
      if (after[e].expired > before[e].expired && by_engine[e].empty()) {
        by_engine[e] = scan;
      }
    }
  }
  return by_engine;
}

TEST(AdmissionRouter, BulkSpillServesBitIdenticallyAcrossReplicas) {
  const auto& localizer = reference_localizer();
  const auto queries = query_pool(12);
  ASSERT_FALSE(queries.empty());
  std::vector<serve::Fix> expected;
  for (const auto& q : queries) expected.push_back(localizer.locate(q));

  fleet::Router router;
  fleet::ShardConfig shard;
  shard.key = "bldg";
  shard.engines = 3;
  shard.engine.workers = 1;
  shard.engine.max_batch = 4;
  shard.engine.queue_cap = 2;
  ASSERT_TRUE(router.add_shard(shard, localizer));
  // Park every engine's lone worker on a scan it is primary for, so each
  // 2-slot queue stays deep however loaded the machine is.
  std::vector<std::unique_ptr<test_support::ParkedWorkers>> parked;
  for (const serve::RssiVector& scan : scans_by_primary_engine(router, "bldg", queries)) {
    ASSERT_FALSE(scan.empty()) << "no query in the pool lands first on some engine";
    parked.push_back(std::make_unique<test_support::ParkedWorkers>(router, "bldg", scan, 1));
  }

  std::size_t served = 0, shed = 0, mismatches = 0;
  std::vector<std::pair<std::size_t, std::future<serve::Fix>>> inflight;
  for (int r = 0; r < 256; ++r) {
    const std::size_t q = static_cast<std::size_t>(r) % queries.size();
    engine::Submission s =
        router.submit("bldg", queries[q], SubmitOptions::bulk());
    if (s.accepted()) {
      ++served;
      inflight.emplace_back(q, std::move(s.result));
    } else {
      EXPECT_EQ(s.status, SubmitStatus::kQueueFull);  // whole shard full
      ++shed;
    }
    if (inflight.size() >= 32) {
      for (auto& [qi, fut] : inflight) {
        if (!fixes_identical(fut.get(), expected[qi])) ++mismatches;
      }
      inflight.clear();
    }
  }
  parked.clear();  // release the workers
  for (auto& [qi, fut] : inflight) {
    if (!fixes_identical(fut.get(), expected[qi])) ++mismatches;
  }

  EXPECT_EQ(mismatches, 0u);  // the spill path answers exactly like affinity
  EXPECT_GT(served, 0u);
  EXPECT_GT(shed, 0u);  // 6 total slots vs a 256-request tight loop
  // The flood spilled beyond fingerprint affinity: with 12 distinct scans
  // against 2-slot queues, no single replica can have served everything.
  const auto engines = router.shard_engine_stats("bldg");
  ASSERT_EQ(engines.size(), 3u);
  std::size_t engines_used = 0;
  for (const auto& e : engines) engines_used += e.bulk.accepted > 0 ? 1 : 0;
  EXPECT_GE(engines_used, 2u);
}

TEST(AdmissionRouter, ClassCountersFlowIntoFleetStats) {
  const auto& localizer = reference_localizer();
  const auto queries = query_pool(4);
  ASSERT_FALSE(queries.empty());

  fleet::Router router;
  for (const char* key : {"A", "B"}) {
    fleet::ShardConfig shard;
    shard.key = key;
    shard.engine.workers = 1;
    ASSERT_TRUE(router.add_shard(shard, localizer));
  }

  std::vector<std::future<serve::Fix>> futures;
  for (int r = 0; r < 6; ++r) {
    engine::Submission s = router.submit(r % 2 == 0 ? "A" : "B", queries[0]);
    ASSERT_TRUE(s.accepted());
    futures.push_back(std::move(s.result));
  }
  for (int r = 0; r < 4; ++r) {
    engine::Submission s =
        router.submit("A", queries[1], SubmitOptions::bulk());
    ASSERT_TRUE(s.accepted());
    futures.push_back(std::move(s.result));
  }
  SubmitOptions dead = SubmitOptions::bulk();
  dead.deadline = Clock::now() - std::chrono::milliseconds(1);
  EXPECT_EQ(router.submit("B", queries[2], dead).status, SubmitStatus::kExpired);
  for (auto& f : futures) (void)f.get();

  const fleet::FleetStats stats = router.stats();
  EXPECT_EQ(stats.total.interactive.accepted, 6u);
  EXPECT_EQ(stats.total.bulk.accepted, 4u);
  EXPECT_EQ(stats.total.bulk.expired, 1u);
  EXPECT_EQ(stats.shards.at("A").bulk.accepted, 4u);
  EXPECT_EQ(stats.shards.at("B").bulk.expired, 1u);
  EXPECT_EQ(stats.total.interactive.accepted + stats.total.bulk.accepted,
            stats.total.submitted);
  EXPECT_EQ(stats.total.latency_us.count(), stats.total.completed);
}

}  // namespace
}  // namespace noble::engine
