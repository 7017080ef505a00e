// Fleet router tests: shard-keyed routing equivalence, consistent
// kQueueFull fallback inside a shard, merged
// EngineStats/Histogram fleet views against pooled-sample ground truth, and
// hot-swap semantics (new admissions serve the new model, invalidated
// sessions).
//
// The concurrency tests here carry the `concurrency` CTest label and run
// under -DNOBLE_SANITIZE=thread in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "core/experiment.h"
#include "core/noble_imu.h"
#include "core/noble_wifi.h"
#include "fleet/router.h"
#include "serve/imu_localizer.h"
#include "serve/wifi_localizer.h"

namespace noble::fleet {
namespace {

bool fixes_identical(const serve::Fix& a, const serve::Fix& b) { return a == b; }

// Two fitted models over the same campus: B uses a different quantization
// grid, so the two disagree on (at least some) fixes — the property the
// hot-swap staleness test needs.
struct FleetFixture {
  core::WifiExperiment exp;
  core::NobleWifiModel model_a;
  core::NobleWifiModel model_b;
};

const FleetFixture& fleet_fixture() {
  static const FleetFixture* fixture = [] {
    core::WifiExperimentConfig cfg;
    cfg.total_samples = 1200;
    cfg.seed = 515;
    auto make_config = [](double tau, std::uint64_t seed) {
      core::NobleWifiConfig mc;
      mc.quantize.tau = tau;
      mc.quantize.coarse_l = tau * 4.0;
      mc.epochs = 6;
      mc.hidden_units = 32;
      mc.seed = seed;
      return mc;
    };
    auto* f = new FleetFixture{core::make_uji_experiment(cfg),
                               core::NobleWifiModel(make_config(6.0, 42)),
                               core::NobleWifiModel(make_config(8.0, 99))};
    f->model_a.fit(f->exp.split.train);
    f->model_b.fit(f->exp.split.train);
    return f;
  }();
  return *fixture;
}

const serve::WifiLocalizer& localizer_a() {
  static const serve::WifiLocalizer* l =
      new serve::WifiLocalizer(serve::WifiLocalizer::from_model(fleet_fixture().model_a));
  return *l;
}

const serve::WifiLocalizer& localizer_b() {
  static const serve::WifiLocalizer* l =
      new serve::WifiLocalizer(serve::WifiLocalizer::from_model(fleet_fixture().model_b));
  return *l;
}

std::vector<serve::RssiVector> query_pool(std::size_t count) {
  const auto& f = fleet_fixture();
  std::vector<serve::RssiVector> queries;
  for (std::size_t i = 0; i < count && i < f.exp.split.test.size(); ++i) {
    queries.push_back(f.exp.split.test.samples[i].rssi);
  }
  return queries;
}

ShardConfig shard_config(std::string key, std::size_t engines = 1) {
  ShardConfig cfg;
  cfg.key = std::move(key);
  cfg.engines = engines;
  cfg.engine.workers = 1;
  cfg.engine.max_batch = 8;
  cfg.engine.queue_cap = 1024;
  return cfg;
}

// A small IMU tracker so a shard can host streaming sessions.
struct ImuFixture {
  core::ImuExperiment exp;
  core::NobleImuTracker tracker;
};

const ImuFixture& imu_fixture() {
  static const ImuFixture* fixture = [] {
    core::ImuExperimentConfig icfg;
    icfg.num_paths = 200;
    icfg.total_walk_time_s = 600.0;
    icfg.readings_per_segment = 8;
    icfg.imu.ref_interval_s = 15.0;
    icfg.seed = 516;
    core::NobleImuConfig imc;
    imc.quantize.tau = 2.0;
    imc.epochs = 4;
    imc.projection_dim = 6;
    auto* f = new ImuFixture{core::make_imu_experiment(icfg), core::NobleImuTracker(imc)};
    f->tracker.fit(f->exp.split.train);
    return f;
  }();
  return *fixture;
}

const serve::ImuLocalizer& imu_localizer() {
  static const serve::ImuLocalizer* l =
      new serve::ImuLocalizer(serve::ImuLocalizer::from_model(imu_fixture().tracker));
  return *l;
}

// The fleet-level equivalence contract: through any shard, every routed fix
// is bit-identical to direct inference on that shard's model — under
// concurrent traffic to all shards at once.
TEST(Router, RoutedFixesBitIdenticalToDirectPerShard) {
  const auto queries = query_pool(48);
  ASSERT_FALSE(queries.empty());
  std::vector<serve::Fix> expected_a, expected_b;
  for (const auto& q : queries) {
    expected_a.push_back(localizer_a().locate(q));
    expected_b.push_back(localizer_b().locate(q));
  }

  Router router;
  ShardConfig a = shard_config("bldg-A", 2);
  ShardConfig b = shard_config("bldg-B");
  ASSERT_TRUE(router.add_shard(a, localizer_a()));
  ASSERT_TRUE(router.add_shard(b, localizer_b()));
  ASSERT_TRUE(router.has_shard("bldg-A"));
  EXPECT_EQ(router.num_shards(), 2u);

  constexpr int kClients = 4;
  constexpr int kPerClient = 150;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937 rng(static_cast<unsigned>(4000 + c));
      std::uniform_int_distribution<std::size_t> pick(0, queries.size() - 1);
      for (int r = 0; r < kPerClient; ++r) {
        const std::size_t q = pick(rng);
        const bool to_a = (r + c) % 2 == 0;
        engine::Submission s = router.submit(to_a ? "bldg-A" : "bldg-B", queries[q]);
        while (s.status == engine::SubmitStatus::kQueueFull) {
          std::this_thread::yield();
          s = router.submit(to_a ? "bldg-A" : "bldg-B", queries[q]);
        }
        ASSERT_TRUE(s.accepted());
        const serve::Fix fix = s.result.get();
        if (!fixes_identical(fix, to_a ? expected_a[q] : expected_b[q])) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(mismatches.load(), 0);

  const FleetStats stats = router.stats();
  ASSERT_EQ(stats.shards.size(), 2u);
  EXPECT_EQ(stats.num_engines, 3u);
  const std::uint64_t total_requests = static_cast<std::uint64_t>(kClients) * kPerClient;
  EXPECT_EQ(stats.total.completed, total_requests);
  EXPECT_EQ(stats.shards.at("bldg-A").completed + stats.shards.at("bldg-B").completed,
            total_requests);
  EXPECT_EQ(stats.total.latency_us.count(), stats.total.completed);
}

TEST(Router, UnknownShardIsAnExplicitVerdict) {
  Router router;
  ASSERT_TRUE(router.add_shard(shard_config("known"), localizer_a()));
  const auto queries = query_pool(1);
  ASSERT_FALSE(queries.empty());
  EXPECT_EQ(router.submit("unknown", queries[0]).status, engine::SubmitStatus::kNoShard);
  EXPECT_FALSE(router.open_session("unknown", geo::Point2{0.0, 0.0}).has_value());
  EXPECT_FALSE(router.hot_swap("unknown", localizer_a()));
  EXPECT_FALSE(router.has_shard("unknown"));
  // Duplicate keys and empty keys are rejected, not overwritten.
  EXPECT_FALSE(router.add_shard(shard_config("known"), localizer_b()));
  EXPECT_FALSE(router.add_shard(shard_config(""), localizer_a()));
  EXPECT_EQ(router.num_shards(), 1u);
}

TEST(Router, FallbackIsConsistentAndSpillsOnlyWhenFull) {
  const auto queries = query_pool(8);
  ASSERT_FALSE(queries.empty());

  // Unloaded: the same scan must land on the same engine every time
  // (deterministic placement).
  {
    Router router;
    ASSERT_TRUE(router.add_shard(shard_config("S", 2), localizer_a()));
    for (int r = 0; r < 6; ++r) {
      engine::Submission s = router.submit("S", queries[0]);
      ASSERT_TRUE(s.accepted());
      (void)s.result.get();
    }
    const auto engines = router.shard_engine_stats("S");
    ASSERT_EQ(engines.size(), 2u);
    const auto served = std::max(engines[0].completed, engines[1].completed);
    EXPECT_EQ(served, 6u);  // all six on one engine, none spilled
  }

  // Overloaded: tiny queues + tight-loop flood forces kQueueFull on the
  // primary; the router must spill to the sibling replica and every
  // accepted future must still be bit-identical to direct inference. One
  // client floods bulk, so both lanes fill while a sampler checks that
  // every snapshot's queue depth is exactly its class split.
  {
    Router router;
    ShardConfig cfg = shard_config("S", 2);
    cfg.engine.workers = 1;
    cfg.engine.max_batch = 2;
    cfg.engine.queue_cap = 2;
    ASSERT_TRUE(router.add_shard(cfg, localizer_a()));
    const serve::Fix expected = localizer_a().locate(queries[0]);

    constexpr int kClients = 3;
    constexpr int kPerClient = 400;
    std::atomic<int> mismatches{0};
    std::atomic<std::uint64_t> accepted{0}, rejected{0};
    std::atomic<bool> flooding{true};
    std::atomic<std::uint64_t> samples{0}, torn{0};
    std::thread sampler([&] {
      const auto split = [](const engine::EngineStats& s) {
        return s.interactive.queue_depth + s.bulk.queue_depth;
      };
      do {
        const FleetStats fleet = router.stats();
        if (fleet.total.queue_depth != split(fleet.total)) torn.fetch_add(1);
        for (const engine::EngineStats& e : router.shard_engine_stats("S")) {
          if (e.queue_depth != split(e)) torn.fetch_add(1);
        }
        samples.fetch_add(1);
      } while (flooding.load());
    });
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        const engine::SubmitOptions options =
            c == 0 ? engine::SubmitOptions::bulk() : engine::SubmitOptions::interactive();
        std::vector<std::future<serve::Fix>> inflight;
        for (int r = 0; r < kPerClient; ++r) {
          engine::Submission s = router.submit("S", queries[0], options);
          if (s.accepted()) {
            accepted.fetch_add(1, std::memory_order_relaxed);
            inflight.push_back(std::move(s.result));
          } else {
            ASSERT_EQ(s.status, engine::SubmitStatus::kQueueFull);
            rejected.fetch_add(1, std::memory_order_relaxed);
          }
          if (inflight.size() >= 32) {
            for (auto& f : inflight) {
              if (!fixes_identical(f.get(), expected)) {
                mismatches.fetch_add(1, std::memory_order_relaxed);
              }
            }
            inflight.clear();
          }
        }
        for (auto& f : inflight) {
          if (!fixes_identical(f.get(), expected)) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& client : clients) client.join();
    flooding.store(false);
    sampler.join();

    EXPECT_GT(samples.load(), 0u);
    EXPECT_EQ(torn.load(), 0u) << "of " << samples.load() << " snapshots";
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(accepted.load() + rejected.load(),
              static_cast<std::uint64_t>(kClients) * kPerClient);
    const auto engines = router.shard_engine_stats("S");
    ASSERT_EQ(engines.size(), 2u);
    // A single scan keys a single primary, so any work on the *other*
    // engine is fallback spill — and a 2-slot queue under a 3-thread
    // tight-loop flood overflows with certainty.
    EXPECT_GT(std::min(engines[0].completed, engines[1].completed), 0u);
    EXPECT_GT(rejected.load(), 0u);
  }
}

// Merged fleet percentiles vs pooled-sample ground truth: merging per-engine
// histograms must agree with percentiles of the pooled raw samples to
// within one log-bin's width ratio (the Histogram accuracy contract).
TEST(FleetStats, MergedPercentilesMatchPooledSamples) {
  std::mt19937 rng(77);
  std::lognormal_distribution<double> fast(std::log(180.0), 0.35);   // "engine 0"
  std::lognormal_distribution<double> slow(std::log(2400.0), 0.55);  // "engine 1"

  engine::EngineStats a, b;
  std::vector<double> pooled;
  for (int i = 0; i < 4000; ++i) {
    const double ua = fast(rng);
    a.latency_us.record(ua);
    pooled.push_back(ua);
  }
  a.completed = 4000;
  for (int i = 0; i < 1000; ++i) {
    const double ub = slow(rng);
    b.latency_us.record(ub);
    pooled.push_back(ub);
  }
  b.completed = 1000;

  engine::EngineStats merged;
  merged.merge(a);
  merged.merge(b);
  EXPECT_EQ(merged.completed, 5000u);
  EXPECT_EQ(merged.latency_us.count(), 5000u);
  EXPECT_EQ(merged.latency_us.min_recorded(),
            std::min(a.latency_us.min_recorded(), b.latency_us.min_recorded()));
  EXPECT_EQ(merged.latency_us.max_recorded(),
            std::max(a.latency_us.max_recorded(), b.latency_us.max_recorded()));

  // One latency bin spans a factor of (1e7/1)^(1/140) ~= 1.122.
  const double bin_ratio = std::pow(1e7, 1.0 / 140.0);
  for (const double q : {50.0, 95.0, 99.0}) {
    const double exact = percentile(pooled, q);
    const double approx = merged.latency_us.percentile(q);
    EXPECT_LE(approx, exact * bin_ratio) << "q=" << q;
    EXPECT_GE(approx, exact / bin_ratio) << "q=" << q;
  }
}

TEST(FleetStats, LiveRouterTotalsAreTheSumOfShards) {
  const auto queries = query_pool(16);
  ASSERT_FALSE(queries.empty());
  Router router;
  ASSERT_TRUE(router.add_shard(shard_config("A", 2), localizer_a(), imu_localizer()));
  ASSERT_TRUE(router.add_shard(shard_config("B"), localizer_b()));
  const auto options = [](int r) {
    return r % 2 == 0 ? engine::SubmitOptions::interactive()
                      : engine::SubmitOptions::bulk();
  };
  for (int r = 0; r < 40; ++r) {
    // Every other pair of scans is bulk, so both shards see both classes.
    engine::Submission s =
        router.submit(r % 2 == 0 ? "A" : "B", queries[static_cast<std::size_t>(r) % queries.size()],
                      options(r / 2));
    ASSERT_TRUE(s.accepted());
    (void)s.result.get();
  }
  const auto session =
      router.open_session("A", imu_fixture().exp.split.test.paths.front().start);
  ASSERT_TRUE(session.has_value());
  const serve::ImuSegment segment(imu_localizer().segment_dim(), 0.0f);
  constexpr std::uint64_t kUpdates = 6;
  for (std::uint64_t u = 0; u < kUpdates; ++u) {
    engine::Submission s = router.track(*session, segment, options(static_cast<int>(u)));
    ASSERT_TRUE(s.accepted());
    (void)s.result.get();
  }
  // Rejections and expiries in both classes, on both shards.
  const serve::RssiVector short_scan(3, 0.0f);
  EXPECT_EQ(router.submit("A", short_scan).status, engine::SubmitStatus::kBadDimension);
  EXPECT_EQ(router.submit("B", short_scan, engine::SubmitOptions::bulk()).status,
            engine::SubmitStatus::kBadDimension);
  EXPECT_EQ(router.track(*session, serve::ImuSegment(1, 0.0f), engine::SubmitOptions::bulk())
                .status,
            engine::SubmitStatus::kBadDimension);
  engine::SubmitOptions dead = engine::SubmitOptions::bulk();
  dead.deadline = std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  EXPECT_EQ(router.submit("B", queries[0], dead).status, engine::SubmitStatus::kExpired);
  dead.request_class = engine::RequestClass::kInteractive;
  EXPECT_EQ(router.track(*session, segment, dead).status, engine::SubmitStatus::kExpired);

  const FleetStats stats = router.stats();
  std::uint64_t shard_completed = 0, shard_batches = 0;
  std::uint64_t shard_latency_count = 0;
  for (const auto& [key, s] : stats.shards) {
    shard_completed += s.completed;
    shard_batches += s.batches;
    shard_latency_count += s.latency_us.count();
  }
  EXPECT_EQ(stats.total.completed, 40u + kUpdates);
  EXPECT_EQ(shard_completed, 40u + kUpdates);
  EXPECT_EQ(stats.total.batches, shard_batches);
  EXPECT_EQ(stats.total.latency_us.count(), shard_latency_count);
  EXPECT_EQ(stats.total.rejected, 3u);
  EXPECT_EQ(stats.total.expired, 2u);
  EXPECT_GT(stats.total.imu_batches, 0u);
  // Every derived total equals the owner it is read from, in the fleet
  // total and in each shard.
  const auto expect_derived = [](const engine::EngineStats& s, const std::string& where) {
    EXPECT_EQ(s.completed, s.latency_us.count()) << where;
    EXPECT_EQ(s.batches, s.batch_size.count()) << where;
    EXPECT_EQ(s.imu_batches, s.imu_batch_size.count()) << where;
    EXPECT_EQ(s.submitted, s.interactive.accepted + s.bulk.accepted) << where;
    EXPECT_EQ(s.rejected, s.interactive.rejected + s.bulk.rejected) << where;
    EXPECT_EQ(s.expired, s.interactive.expired + s.bulk.expired) << where;
    EXPECT_EQ(s.closed, s.interactive.closed + s.bulk.closed) << where;
  };
  expect_derived(stats.total, "total");
  for (const auto& [key, s] : stats.shards) expect_derived(s, key);
  const double p50 = stats.total.latency_us.percentile(50.0);
  EXPECT_GE(p50, stats.total.latency_us.min_recorded());
  EXPECT_LE(p50, stats.total.latency_us.max_recorded());
}

// Artifact identity: the digest two cluster nodes compare before a spilled
// request may land, surfaced through every telemetry view of the router.
TEST(RouterArtifacts, DigestsIdentifyModelsAcrossShardsSwapsAndStats) {
  Router router;
  ASSERT_TRUE(router.add_shard(shard_config("A"), localizer_a()));
  ASSERT_TRUE(router.add_shard(shard_config("A2"), localizer_a()));
  ASSERT_TRUE(router.add_shard(shard_config("B"), localizer_b()));

  // Same model => same digest (content identity, not per-shard identity);
  // different model => different digest; no digest is the zero sentinel.
  std::map<std::string, ShardArtifact> by_key;
  for (ShardArtifact& artifact : router.shard_artifacts()) {
    by_key.emplace(artifact.shard, std::move(artifact));
  }
  ASSERT_EQ(by_key.size(), 3u);
  EXPECT_NE(by_key.at("A").digest, 0u);
  EXPECT_EQ(by_key.at("A").digest, localizer_a().artifact_digest());
  EXPECT_EQ(by_key.at("A").digest, by_key.at("A2").digest);
  EXPECT_NE(by_key.at("A").digest, by_key.at("B").digest);
  EXPECT_EQ(by_key.at("B").digest, localizer_b().artifact_digest());

  // FleetStats carries the same identity plus the live generation.
  const auto artifact_of = [](const FleetStats& stats, const std::string& shard) {
    const auto it = std::find_if(stats.artifacts.begin(), stats.artifacts.end(),
                                 [&](const ShardArtifact& a) { return a.shard == shard; });
    return it == stats.artifacts.end() ? ShardArtifact{} : *it;
  };
  const FleetStats before = router.stats();
  ASSERT_EQ(before.artifacts.size(), 3u);
  EXPECT_EQ(artifact_of(before, "A").digest, localizer_a().artifact_digest());
  EXPECT_EQ(artifact_of(before, "B").digest, localizer_b().artifact_digest());

  // hot_swap changes the digest and bumps the generation in both views.
  ASSERT_TRUE(router.hot_swap("A", localizer_b()));
  const FleetStats after = router.stats();
  EXPECT_EQ(artifact_of(after, "A").digest, localizer_b().artifact_digest());
  EXPECT_GT(artifact_of(after, "A").generation, artifact_of(before, "A").generation);
  for (const ShardArtifact& artifact : router.shard_artifacts()) {
    if (artifact.shard == "A") {
      EXPECT_EQ(artifact.digest, localizer_b().artifact_digest());
      EXPECT_EQ(artifact.generation, artifact_of(after, "A").generation);
    }
    if (artifact.shard == "A2") {
      EXPECT_EQ(artifact.digest, localizer_a().artifact_digest());
    }
  }

  // The depth snapshot names every shard with one bulk lane per engine —
  // the other half of the heartbeat payload.
  const auto depths = router.queue_depths();
  ASSERT_EQ(depths.size(), 3u);
  for (const ShardDepths& depth : depths) {
    EXPECT_EQ(depth.engines.size(), depth.bulk.size());
    EXPECT_EQ(depth.engines.size(), 1u);
  }
}

// Hot swap: once the shard's model changed, every new admission is served
// by the replacement model, never the old one.
TEST(RouterHotSwap, NewAdmissionsServeTheNewModel) {
  const auto queries = query_pool(48);
  ASSERT_FALSE(queries.empty());
  // A scan the two models disagree on makes staleness observable.
  std::size_t probe = queries.size();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (!fixes_identical(localizer_a().locate(queries[i]), localizer_b().locate(queries[i]))) {
      probe = i;
      break;
    }
  }
  ASSERT_LT(probe, queries.size())
      << "fixture models with different grids must disagree somewhere";

  Router router;
  ASSERT_TRUE(router.add_shard(shard_config("swap"), localizer_a()));

  engine::Submission before = router.submit("swap", queries[probe]);
  ASSERT_TRUE(before.accepted());
  EXPECT_TRUE(fixes_identical(before.result.get(), localizer_a().locate(queries[probe])));

  ASSERT_TRUE(router.hot_swap("swap", localizer_b()));

  engine::Submission after = router.submit("swap", queries[probe]);
  ASSERT_TRUE(after.accepted());
  const serve::Fix fix = after.result.get();
  EXPECT_TRUE(fixes_identical(fix, localizer_b().locate(queries[probe])));
  EXPECT_FALSE(fixes_identical(fix, localizer_a().locate(queries[probe])));
}

TEST(RouterHotSwap, SessionsAreStickyToTheirGeneration) {
  const serve::ImuLocalizer& imu = imu_localizer();
  Router router;
  ASSERT_TRUE(router.add_shard(shard_config("swap"), localizer_a(), imu));
  const auto& path = imu_fixture().exp.split.test.paths.front();
  const auto session = router.open_session("swap", path.start);
  ASSERT_TRUE(session.has_value());

  const serve::ImuSegment segment(imu.segment_dim(), 0.0f);
  engine::Submission before = router.track(*session, segment);
  ASSERT_TRUE(before.accepted());
  (void)before.result.get();

  ASSERT_TRUE(router.hot_swap("swap", localizer_a(), imu));
  // The old generation is gone: its sessions do not resolve on the new one.
  EXPECT_EQ(router.track(*session, segment).status, engine::SubmitStatus::kNoSession);
  EXPECT_FALSE(router.close_session(*session));
  // New sessions open against the replacement generation.
  const auto fresh = router.open_session("swap", path.start);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_NE(fresh->generation, session->generation);
  engine::Submission after = router.track(*fresh, segment);
  ASSERT_TRUE(after.accepted());
  (void)after.result.get();
}

}  // namespace
}  // namespace noble::fleet
