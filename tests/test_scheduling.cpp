// Scheduling tests (PR 9): EDF bulk-lane ordering determinism (ties, mixed
// deadline/no-deadline entries, all-expired pops), cross-session IMU
// coalescing bit-identity against direct TrackingSession inference,
// per-session FIFO preserved under 8-thread pipelined load, and IMU pass
// accounting for a lone session update.
//
// Carries the `concurrency` CTest label and runs under
// -DNOBLE_SANITIZE=thread in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "core/noble_imu.h"
#include "core/noble_wifi.h"
#include "engine/bounded_queue.h"
#include "engine/engine.h"
#include "serve/imu_localizer.h"
#include "serve/wifi_localizer.h"

namespace noble::engine {
namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// EDF bulk-lane ordering: deterministic deadline-sorted draining.
// ---------------------------------------------------------------------------

TEST(EdfQueue, BulkDrainsByAscendingDeadline) {
  BoundedQueue<int> queue(8);
  const auto now = Clock::now();
  const auto at = [&](int ms) { return now + std::chrono::milliseconds(ms); };
  EXPECT_EQ(queue.try_push(1, RequestClass::kBulk, at(30000)), PushResult::kOk);
  EXPECT_EQ(queue.try_push(2, RequestClass::kBulk, at(10000)), PushResult::kOk);
  EXPECT_EQ(queue.try_push(3, RequestClass::kBulk, at(20000)), PushResult::kOk);
  std::vector<int> expired;
  const auto batch = queue.pop_batch(8, std::chrono::microseconds(0), &expired);
  EXPECT_TRUE(expired.empty());
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0], 2);  // earliest deadline first, not arrival order
  EXPECT_EQ(batch[1], 3);
  EXPECT_EQ(batch[2], 1);
}

TEST(EdfQueue, TiesBreakByAdmissionSequence) {
  BoundedQueue<int> queue(8);
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(queue.try_push(i, RequestClass::kBulk, deadline), PushResult::kOk);
  }
  const auto batch = queue.pop_batch(8, std::chrono::microseconds(0));
  ASSERT_EQ(batch.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(batch[static_cast<std::size_t>(i)], i);
}

TEST(EdfQueue, DeadlinelessEntriesSortLastInArrivalOrder) {
  BoundedQueue<int> queue(8);
  const auto now = Clock::now();
  EXPECT_EQ(queue.try_push(1, RequestClass::kBulk), PushResult::kOk);
  EXPECT_EQ(queue.try_push(2, RequestClass::kBulk, now + std::chrono::seconds(60)),
            PushResult::kOk);
  EXPECT_EQ(queue.try_push(3, RequestClass::kBulk), PushResult::kOk);
  EXPECT_EQ(queue.try_push(4, RequestClass::kBulk, now + std::chrono::seconds(30)),
            PushResult::kOk);
  const auto batch = queue.pop_batch(8, std::chrono::microseconds(0));
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch[0], 4);  // deadline-carrying entries first, ascending
  EXPECT_EQ(batch[1], 2);
  EXPECT_EQ(batch[2], 1);  // deadline-less tail keeps arrival order
  EXPECT_EQ(batch[3], 3);
}

TEST(EdfQueue, InteractiveLaneStaysFifoAndStillOutranksBulk) {
  BoundedQueue<int> queue(8);
  const auto now = Clock::now();
  // Interactive pushed with *decreasing* deadlines: EDF would reverse them,
  // FIFO must not.
  EXPECT_EQ(queue.try_push(1, RequestClass::kInteractive, now + std::chrono::seconds(30)),
            PushResult::kOk);
  EXPECT_EQ(queue.try_push(2, RequestClass::kInteractive, now + std::chrono::seconds(20)),
            PushResult::kOk);
  EXPECT_EQ(queue.try_push(10, RequestClass::kBulk, now + std::chrono::seconds(1)),
            PushResult::kOk);
  const auto batch = queue.pop_batch(8, std::chrono::microseconds(0));
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0], 1);   // arrival order within interactive
  EXPECT_EQ(batch[1], 2);
  EXPECT_EQ(batch[2], 10);  // bulk still fills after interactive
}

TEST(EdfQueue, AllExpiredPopReturnsCorpsesInDeadlineOrderWithoutWaiting) {
  BoundedQueue<int> queue(8);
  const auto past = Clock::now() - std::chrono::milliseconds(1);
  EXPECT_EQ(queue.try_push(1, RequestClass::kBulk, past), PushResult::kOk);
  EXPECT_EQ(queue.try_push(2, RequestClass::kBulk, past - std::chrono::milliseconds(2)),
            PushResult::kOk);
  EXPECT_EQ(queue.try_push(3, RequestClass::kBulk, past - std::chrono::milliseconds(1)),
            PushResult::kOk);
  std::vector<int> expired;
  const auto t0 = Clock::now();
  const auto batch = queue.pop_batch(8, std::chrono::seconds(30), &expired);
  EXPECT_LT(Clock::now() - t0, std::chrono::seconds(5));  // corpse short-circuit
  EXPECT_TRUE(batch.empty());
  ASSERT_EQ(expired.size(), 3u);
  EXPECT_EQ(expired[0], 2);  // EDF order holds for the expired list too
  EXPECT_EQ(expired[1], 3);
  EXPECT_EQ(expired[2], 1);
}

// ---------------------------------------------------------------------------
// Cross-session IMU coalescing: bit-identity and per-session FIFO.
// ---------------------------------------------------------------------------

struct SchedulingFixture {
  core::WifiExperiment wifi_exp;
  core::NobleWifiModel wifi_model;
  core::ImuExperiment imu_exp;
  core::NobleImuTracker imu_tracker;
};

const SchedulingFixture& scheduling_fixture() {
  static const SchedulingFixture* fixture = [] {
    core::WifiExperimentConfig wcfg;
    wcfg.total_samples = 600;
    wcfg.seed = 905;
    core::ImuExperimentConfig icfg;
    icfg.num_paths = 300;
    icfg.total_walk_time_s = 1000.0;
    icfg.readings_per_segment = 8;
    icfg.imu.ref_interval_s = 15.0;
    icfg.seed = 906;
    auto* f = new SchedulingFixture{core::make_uji_experiment(wcfg),
                                    core::NobleWifiModel([] {
                                      core::NobleWifiConfig mc;
                                      mc.quantize.tau = 6.0;
                                      mc.quantize.coarse_l = 24.0;
                                      mc.epochs = 4;
                                      mc.hidden_units = 32;
                                      return mc;
                                    }()),
                                    core::make_imu_experiment(icfg),
                                    core::NobleImuTracker([] {
                                      core::NobleImuConfig mc;
                                      mc.quantize.tau = 2.0;
                                      mc.epochs = 6;
                                      mc.projection_dim = 6;
                                      return mc;
                                    }())};
    f->wifi_model.fit(f->wifi_exp.split.train);
    f->imu_tracker.fit(f->imu_exp.split.train);
    return f;
  }();
  return *fixture;
}

std::vector<serve::ImuSegment> segments_of(const data::ImuPath& path,
                                           std::size_t segment_dim) {
  std::vector<serve::ImuSegment> out;
  out.reserve(path.num_segments);
  for (std::size_t s = 0; s < path.num_segments; ++s) {
    out.emplace_back(
        path.features.begin() + static_cast<std::ptrdiff_t>(s * segment_dim),
        path.features.begin() + static_cast<std::ptrdiff_t>((s + 1) * segment_dim));
  }
  return out;
}

// The serve-layer coalescing contract: one update_sessions pass over K
// different tracks returns exactly the fixes K serial update() calls would —
// every module in the path is row-independent, so the batch dimension never
// leaks between tracks.
TEST(SessionCoalescing, UpdateSessionsBitIdenticalToSerialUpdates) {
  const auto& f = scheduling_fixture();
  const serve::ImuLocalizer imu = serve::ImuLocalizer::from_model(f.imu_tracker);
  const std::size_t num_tracks = std::min<std::size_t>(f.imu_exp.split.test.size(), 8);
  ASSERT_GE(num_tracks, 8u);

  std::vector<serve::TrackingSession> batched;
  std::vector<serve::TrackingSession> serial;
  std::vector<std::vector<serve::ImuSegment>> tracks;
  std::size_t rounds = 0;
  for (std::size_t p = 0; p < num_tracks; ++p) {
    const auto& path = f.imu_exp.split.test.paths[p];
    batched.push_back(imu.start_session(path.start));
    serial.push_back(imu.start_session(path.start));
    tracks.push_back(segments_of(path, f.imu_tracker.segment_dim()));
    rounds = std::max(rounds, tracks.back().size());
  }
  ASSERT_GT(rounds, 0u);

  for (std::size_t round = 0; round < rounds; ++round) {
    std::vector<serve::TrackingSession*> sessions;
    std::vector<const serve::ImuSegment*> segments;
    std::vector<serve::Fix> expected;
    for (std::size_t p = 0; p < num_tracks; ++p) {
      if (round >= tracks[p].size()) continue;  // ragged: shorter walks drop out
      sessions.push_back(&batched[p]);
      segments.push_back(&tracks[p][round]);
      expected.push_back(serial[p].update(tracks[p][round]));
    }
    if (sessions.empty()) break;
    const std::vector<serve::Fix> fixes = imu.update_sessions(sessions, segments);
    ASSERT_EQ(fixes.size(), expected.size());
    for (std::size_t i = 0; i < fixes.size(); ++i) {
      EXPECT_TRUE(fixes[i] == expected[i]) << "round " << round << " track " << i;
    }
  }
  for (std::size_t p = 0; p < num_tracks; ++p) {
    EXPECT_EQ(batched[p].segments_consumed(), serial[p].segments_consumed());
    EXPECT_EQ(batched[p].displacement().x, serial[p].displacement().x);
    EXPECT_EQ(batched[p].displacement().y, serial[p].displacement().y);
  }
}

// Engine-level: 8 producer threads pipeline updates into 8 sessions with a
// single worker (tokens pile up, so pops carry several sessions and the
// coalesced drain actually batches across tracks). Every fix must match a
// direct TrackingSession replay — which simultaneously proves per-session
// FIFO: any reordering within a track would change its running sum and the
// fixes after it.
TEST(SessionCoalescing, PipelinedEngineMatchesDirectTrackingAcross8Threads) {
  const auto& f = scheduling_fixture();
  const serve::WifiLocalizer wifi = serve::WifiLocalizer::from_model(f.wifi_model);
  const serve::ImuLocalizer imu = serve::ImuLocalizer::from_model(f.imu_tracker);

  EngineConfig cfg;
  cfg.workers = 1;  // force token pile-up => cross-session batches
  cfg.max_batch = 16;
  cfg.queue_cap = 1024;
  cfg.session_backlog = 256;
  Engine engine(wifi, imu, cfg);
  ASSERT_TRUE(engine.has_imu());

  const std::size_t num_tracks = std::min<std::size_t>(f.imu_exp.split.test.size(), 8);
  ASSERT_GE(num_tracks, 8u);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> producers;
  producers.reserve(num_tracks);
  for (std::size_t p = 0; p < num_tracks; ++p) {
    producers.emplace_back([&, p] {
      const auto& path = f.imu_exp.split.test.paths[p];
      const auto segments = segments_of(path, f.imu_tracker.segment_dim());
      serve::TrackingSession direct = imu.start_session(path.start);
      std::vector<serve::Fix> expected;
      expected.reserve(segments.size());
      for (const auto& segment : segments) expected.push_back(direct.update(segment));

      const auto session = engine.open_session(path.start);
      ASSERT_TRUE(session.has_value());
      std::vector<std::future<serve::Fix>> fixes;
      fixes.reserve(segments.size());
      for (const auto& segment : segments) {
        Submission s = engine.track(*session, segment);
        while (s.status == SubmitStatus::kQueueFull) {
          std::this_thread::yield();
          s = engine.track(*session, segment);
        }
        ASSERT_TRUE(s.accepted());
        fixes.push_back(std::move(s.result));
      }
      for (std::size_t i = 0; i < fixes.size(); ++i) {
        if (!(fixes[i].get() == expected[i])) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
      EXPECT_TRUE(engine.close_session(*session));
    });
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  // The batched drain really ran: every update was served by one of the
  // counted IMU passes.
  const EngineStats stats = engine.stats();
  EXPECT_GT(stats.imu_batches, 0u);
}

// A lone session token takes the same batched drain as a crowd of them:
// one update on one session is one IMU pass of width 1, so imu_batches
// counts every pass that served a session update.
TEST(SessionCoalescing, LoneUpdateIsOneImuPassOfWidthOne) {
  const auto& f = scheduling_fixture();
  const serve::WifiLocalizer wifi = serve::WifiLocalizer::from_model(f.wifi_model);
  const serve::ImuLocalizer imu = serve::ImuLocalizer::from_model(f.imu_tracker);
  EngineConfig cfg;
  cfg.workers = 1;
  Engine engine(wifi, imu, cfg);

  const auto& path = f.imu_exp.split.test.paths.front();
  const auto segments = segments_of(path, f.imu_tracker.segment_dim());
  ASSERT_FALSE(segments.empty());
  serve::TrackingSession direct = imu.start_session(path.start);
  const serve::Fix expected = direct.update(segments.front());

  const auto session = engine.open_session(path.start);
  ASSERT_TRUE(session.has_value());
  Submission s = engine.track(*session, segments.front());
  ASSERT_TRUE(s.accepted());
  EXPECT_TRUE(s.result.get() == expected);

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.imu_batches, 1u);
  EXPECT_EQ(stats.imu_batch_size.count(), 1u);
  EXPECT_EQ(stats.imu_batch_size.max_recorded(), 1.0);
  EXPECT_EQ(stats.completed, 1u);
}

}  // namespace
}  // namespace noble::engine
