// Engine tests: bounded-queue semantics (deterministic backpressure and
// batching), the engine equivalence contract (batched output bit-identical
// to direct locate() under concurrency), session multiplexing, admission
// control under flood, telemetry, graceful shutdown, and completion
// notifiers (SubmitOptions::notify: once per request, after the whole batch
// settled, on every settle path).
//
// The concurrency tests here carry the `concurrency` CTest label and run
// under -DNOBLE_SANITIZE=thread in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <latch>
#include <map>
#include <mutex>
#include <memory>
#include <random>
#include <span>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "core/noble_imu.h"
#include "core/noble_wifi.h"
#include "engine/backend.h"
#include "engine/bounded_queue.h"
#include "engine/engine.h"
#include "kernels/kernels.h"
#include "serve/imu_localizer.h"
#include "serve/wifi_localizer.h"

namespace noble::engine {
namespace {

// ---------------------------------------------------------------------------
// BoundedQueue: the deterministic half of admission control.
// ---------------------------------------------------------------------------

TEST(BoundedQueue, RejectsWhenFull) {
  BoundedQueue<int> queue(2);
  EXPECT_EQ(queue.try_push(1), PushResult::kOk);
  EXPECT_EQ(queue.try_push(2), PushResult::kOk);
  EXPECT_EQ(queue.try_push(3), PushResult::kFull);
  EXPECT_EQ(queue.depth(), 2u);

  const auto batch = queue.pop_batch(8);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0], 1);
  EXPECT_EQ(batch[1], 2);
  EXPECT_EQ(queue.try_push(4), PushResult::kOk);  // capacity freed
}

TEST(BoundedQueue, PopBatchHonorsMaxItems) {
  BoundedQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(queue.try_push(i), PushResult::kOk);
  const auto first = queue.pop_batch(3);
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[2], 2);
  EXPECT_EQ(queue.depth(), 2u);
  const auto rest = queue.pop_batch(3);
  EXPECT_EQ(rest.size(), 2u);
}

TEST(BoundedQueue, CloseDrainsThenSignalsShutdown) {
  BoundedQueue<int> queue(8);
  EXPECT_EQ(queue.try_push(1), PushResult::kOk);
  queue.close();
  EXPECT_EQ(queue.try_push(2), PushResult::kClosed);
  const auto drained = queue.pop_batch(8);
  ASSERT_EQ(drained.size(), 1u);  // close() does not drop queued work
  EXPECT_TRUE(queue.pop_batch(8).empty());
}

TEST(BoundedQueue, CloseWakesBlockedConsumer) {
  BoundedQueue<int> queue(4);
  std::atomic<bool> returned{false};
  std::thread consumer([&] {
    (void)queue.pop_batch(4);
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  consumer.join();
  EXPECT_TRUE(returned.load());
}

// ---------------------------------------------------------------------------
// Engine: shared small fixtures (mirrors test_serve_localizer's sizing).
// ---------------------------------------------------------------------------

struct EngineFixture {
  core::WifiExperiment exp;
  core::NobleWifiModel model;
};

const EngineFixture& engine_fixture() {
  static const EngineFixture* fixture = [] {
    core::WifiExperimentConfig cfg;
    cfg.total_samples = 1200;
    cfg.seed = 303;
    auto* f = new EngineFixture{core::make_uji_experiment(cfg), core::NobleWifiModel([] {
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
  static const serve::WifiLocalizer* localizer =
      new serve::WifiLocalizer(serve::WifiLocalizer::from_model(engine_fixture().model));
  return *localizer;
}

std::vector<serve::RssiVector> query_pool(std::size_t count) {
  const auto& f = engine_fixture();
  std::vector<serve::RssiVector> queries;
  for (std::size_t i = 0; i < count && i < f.exp.split.test.size(); ++i) {
    queries.push_back(f.exp.split.test.samples[i].rssi);
  }
  return queries;
}

bool fixes_identical(const serve::Fix& a, const serve::Fix& b) { return a == b; }

// The tentpole contract: for >= 1000 randomly timed concurrent requests,
// every future is bit-identical to a direct locate() on the same query, no
// matter how the batcher grouped them.
TEST(Engine, ConcurrentResultsBitIdenticalToDirectLocate) {
  const auto& localizer = reference_localizer();
  const auto queries = query_pool(96);
  ASSERT_FALSE(queries.empty());
  std::vector<serve::Fix> expected;
  expected.reserve(queries.size());
  for (const auto& q : queries) expected.push_back(localizer.locate(q));

  EngineConfig cfg;
  cfg.workers = 3;
  cfg.max_batch = 16;
  cfg.queue_cap = 4096;
  Engine engine(localizer, cfg);

  constexpr int kClients = 8;
  constexpr int kPerClient = 160;  // 8 * 160 = 1280 >= 1000 requests
  std::atomic<int> mismatches{0};
  std::atomic<int> accepted{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937 rng(static_cast<unsigned>(1000 + c));
      std::uniform_int_distribution<std::size_t> pick(0, queries.size() - 1);
      std::uniform_int_distribution<int> jitter_us(0, 200);
      for (int r = 0; r < kPerClient; ++r) {
        const std::size_t q = pick(rng);
        Submission submission = engine.submit(queries[q]);
        while (submission.status == SubmitStatus::kQueueFull) {
          std::this_thread::yield();
          submission = engine.submit(queries[q]);
        }
        ASSERT_TRUE(submission.accepted());
        const serve::Fix fix = submission.result.get();
        if (!fixes_identical(fix, expected[q])) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        accepted.fetch_add(1, std::memory_order_relaxed);
        // Randomly timed arrivals: sometimes bursty, sometimes spaced, so
        // the batcher sees every micro-batch size.
        if (r % 3 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(jitter_us(rng)));
        }
      }
    });
  }
  for (auto& client : clients) client.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(accepted.load(), kClients * kPerClient);
  const EngineStats stats = engine.stats();
  EXPECT_GE(stats.completed, static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_GE(stats.batches, 1u);
  EXPECT_GE(stats.batch_size.max_recorded(), 1.0);
  EXPECT_LE(stats.batch_size.max_recorded(), static_cast<double>(cfg.max_batch));
}

TEST(Engine, RejectsWrongDimensionWithoutQueueing) {
  Engine engine(reference_localizer());
  const Submission s = engine.submit(serve::RssiVector(3, 0.0f));
  EXPECT_EQ(s.status, SubmitStatus::kBadDimension);
  EXPECT_FALSE(s.result.valid());
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 0u);
  EXPECT_EQ(stats.rejected, 1u);
}

TEST(Engine, FloodAgainstTinyQueueDegradesPredictably) {
  // Admission control under overload: with a deliberately tiny queue and a
  // slow single worker, tight-loop submitters must see explicit kQueueFull
  // rejections — and every accepted future must still resolve correctly.
  const auto& localizer = reference_localizer();
  const auto queries = query_pool(8);
  std::vector<serve::Fix> expected;
  for (const auto& q : queries) expected.push_back(localizer.locate(q));

  EngineConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 2;
  cfg.queue_cap = 4;
  Engine engine(localizer, cfg);

  constexpr int kClients = 4;
  constexpr int kPerClient = 500;
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::pair<std::size_t, std::future<serve::Fix>>> inflight;
      for (int r = 0; r < kPerClient; ++r) {
        const std::size_t q = static_cast<std::size_t>(c + r) % queries.size();
        Submission s = engine.submit(queries[q]);
        if (s.accepted()) {
          accepted.fetch_add(1, std::memory_order_relaxed);
          inflight.emplace_back(q, std::move(s.result));
        } else {
          ASSERT_EQ(s.status, SubmitStatus::kQueueFull);
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
        if (inflight.size() >= 64) {
          for (auto& [qi, fut] : inflight) {
            if (!fixes_identical(fut.get(), expected[qi])) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          }
          inflight.clear();
        }
      }
      for (auto& [qi, fut] : inflight) {
        if (!fixes_identical(fut.get(), expected[qi])) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& client : clients) client.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(accepted.load() + rejected.load(),
            static_cast<std::uint64_t>(kClients * kPerClient));
  // 4 tight-loop submitters against a 4-slot queue: overload is certain.
  EXPECT_GT(rejected.load(), 0u);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, accepted.load());
  EXPECT_EQ(stats.rejected, rejected.load());
  EXPECT_EQ(stats.completed, accepted.load());
}

TEST(Engine, ShutdownDrainsEveryAcceptedRequest) {
  const auto& localizer = reference_localizer();
  const auto queries = query_pool(32);
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.max_batch = 8;
  cfg.queue_cap = 1024;
  Engine engine(localizer, cfg);

  std::vector<std::pair<std::size_t, std::future<serve::Fix>>> inflight;
  for (int r = 0; r < 128; ++r) {
    const std::size_t q = static_cast<std::size_t>(r) % queries.size();
    Submission s = engine.submit(queries[q]);
    if (s.accepted()) inflight.emplace_back(q, std::move(s.result));
  }
  engine.shutdown();

  // Every accepted future is fulfilled by the drain, none abandoned.
  for (auto& [q, fut] : inflight) {
    const serve::Fix fix = fut.get();
    EXPECT_TRUE(fixes_identical(fix, localizer.locate(queries[q])));
  }
  const Submission late = engine.submit(queries[0]);
  EXPECT_EQ(late.status, SubmitStatus::kStopped);
  EXPECT_EQ(engine.stats().queue_depth, 0u);
}

TEST(Engine, StatsTelemetryIsCoherent) {
  const auto& localizer = reference_localizer();
  const auto queries = query_pool(16);
  EngineConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 4;
  Engine engine(localizer, cfg);

  std::vector<std::future<serve::Fix>> futures;
  for (int r = 0; r < 40; ++r) {
    Submission s = engine.submit(queries[static_cast<std::size_t>(r) % queries.size()]);
    ASSERT_TRUE(s.accepted());
    futures.push_back(std::move(s.result));
  }
  for (auto& f : futures) (void)f.get();

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 40u);
  EXPECT_EQ(stats.completed, 40u);
  EXPECT_EQ(stats.batch_size.count(), stats.batches);
  EXPECT_EQ(stats.latency_us.count(), stats.completed);
  const LatencySummary latency = summarize_latency_us(stats.latency_us);
  EXPECT_GT(latency.p50_us, 0.0);
  EXPECT_LE(latency.p50_us, latency.p95_us);
  EXPECT_LE(latency.p95_us, latency.p99_us);
  // Batches never exceed the configured cap.
  EXPECT_LE(stats.batch_size.max_recorded(), static_cast<double>(cfg.max_batch));
}

// ---------------------------------------------------------------------------
// IMU session registry.
// ---------------------------------------------------------------------------

struct ImuEngineFixture {
  core::ImuExperiment exp;
  core::NobleImuTracker tracker;
};

const ImuEngineFixture& imu_engine_fixture() {
  static const ImuEngineFixture* fixture = [] {
    core::ImuExperimentConfig cfg;
    cfg.num_paths = 400;
    cfg.total_walk_time_s = 1000.0;
    cfg.readings_per_segment = 8;
    cfg.imu.ref_interval_s = 15.0;
    cfg.seed = 304;
    auto* f = new ImuEngineFixture{core::make_imu_experiment(cfg), core::NobleImuTracker([] {
                                     core::NobleImuConfig mc;
                                     mc.quantize.tau = 2.0;
                                     mc.epochs = 6;
                                     mc.projection_dim = 6;
                                     return mc;
                                   }())};
    f->tracker.fit(f->exp.split.train);
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

TEST(EngineSessions, ConcurrentSessionsMatchDirectTrackingSessions) {
  const auto& wf = engine_fixture();
  const auto& imf = imu_engine_fixture();
  const serve::WifiLocalizer wifi = serve::WifiLocalizer::from_model(wf.model);
  const serve::ImuLocalizer imu = serve::ImuLocalizer::from_model(imf.tracker);

  EngineConfig cfg;
  cfg.workers = 3;
  cfg.max_batch = 8;
  cfg.queue_cap = 1024;
  Engine engine(wifi, imu, cfg);
  ASSERT_TRUE(engine.has_imu());

  const std::size_t num_tracks = std::min<std::size_t>(imf.exp.split.test.size(), 8);
  ASSERT_GE(num_tracks, 2u);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> tracks;
  for (std::size_t p = 0; p < num_tracks; ++p) {
    tracks.emplace_back([&, p] {
      const auto& path = imf.exp.split.test.paths[p];
      const auto segments = segments_of(path, imf.tracker.segment_dim());
      // Reference: a direct session on the same localizer replica family.
      serve::TrackingSession direct = imu.start_session(path.start);
      std::vector<serve::Fix> expected;
      expected.reserve(segments.size());
      for (const auto& segment : segments) expected.push_back(direct.update(segment));

      const auto session = engine.open_session(path.start);
      ASSERT_TRUE(session.has_value());
      // Pipelined submission: all segments in flight at once; the
      // per-session FIFO must still apply them strictly in order.
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
        if (!fixes_identical(fixes[i].get(), expected[i])) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
      EXPECT_TRUE(engine.close_session(*session));
    });
  }
  for (auto& t : tracks) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ---------------------------------------------------------------------------
// Backends: replicas behind the WifiBackend seam.
// ---------------------------------------------------------------------------

constexpr PlanBackend::Precision kBothPrecisions[] = {PlanBackend::Precision::kFloat32,
                                                     PlanBackend::Precision::kInt8};

TEST(EngineBackends, CloneAnswersBitIdenticallyToOriginal) {
  const auto& localizer = reference_localizer();
  const auto queries = query_pool(16);
  ASSERT_FALSE(queries.empty());
  for (const PlanBackend::Precision precision : kBothPrecisions) {
    const PlanBackend original(localizer, precision);
    const std::unique_ptr<WifiBackend> clone = original.clone();
    EXPECT_EQ(original.input_dim(), localizer.num_aps());
    EXPECT_EQ(clone->name(), original.name());
    const auto a = original.locate_batch(queries);
    const auto b = clone->locate_batch(queries);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_TRUE(fixes_identical(a[i], b[i])) << original.name() << " query " << i;
    }
  }
}

// Satellite of the PR 6 kernel refactor: clone() must share one immutable
// pre-packed plan — two shared_ptr copies, never a re-pack or
// re-quantization. Checked two ways: the kernels::pack_operations() counter
// stays flat across clones, and clone/original plan pointers compare equal.
// The fp32 replica serves from the plan its localizer compiled at load.
TEST(EngineBackends, ClonesShareOnePackedPlanWithoutRequantizing) {
  const auto& localizer = reference_localizer();
  const PlanBackend dense(localizer);
  const PlanBackend quantized(localizer, PlanBackend::Precision::kInt8);
  EXPECT_EQ(dense.name(), "dense");
  EXPECT_EQ(quantized.name(), "quantized");
  EXPECT_EQ(dense.plan()->precision(), PlanBackend::Precision::kFloat32);
  EXPECT_EQ(quantized.plan()->precision(), PlanBackend::Precision::kInt8);

  const std::uint64_t packs_before = kernels::pack_operations();
  const std::unique_ptr<WifiBackend> dense_clone = dense.clone();
  const std::unique_ptr<WifiBackend> quant_clone = quantized.clone();
  EXPECT_EQ(kernels::pack_operations(), packs_before)
      << "clone() packed or re-quantized weights";

  const auto* dense_clone_typed = dynamic_cast<const PlanBackend*>(dense_clone.get());
  ASSERT_NE(dense_clone_typed, nullptr);
  EXPECT_EQ(dense_clone_typed->plan().get(), dense.plan().get());

  const auto* quant_clone_typed = dynamic_cast<const PlanBackend*>(quant_clone.get());
  ASSERT_NE(quant_clone_typed, nullptr);
  EXPECT_EQ(quant_clone_typed->plan().get(), quantized.plan().get());
  EXPECT_NE(quantized.plan().get(), dense.plan().get());
}

TEST(EngineBackends, QuantizedEngineBitIdenticalToDirectQuantized) {
  const auto& localizer = reference_localizer();
  const PlanBackend reference(localizer, PlanBackend::Precision::kInt8);
  const auto queries = query_pool(64);
  ASSERT_FALSE(queries.empty());
  std::vector<serve::Fix> expected;
  expected.reserve(queries.size());
  for (const auto& q : queries) {
    expected.push_back(reference.locate_batch(std::span(&q, 1)).front());
  }

  EngineConfig cfg;
  cfg.workers = 2;
  cfg.max_batch = 16;
  cfg.queue_cap = 4096;
  cfg.precision = PlanBackend::Precision::kInt8;
  Engine engine(localizer, cfg);
  EXPECT_EQ(engine.backend_name(), "quantized");

  constexpr int kClients = 4;
  constexpr int kPerClient = 120;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937 rng(static_cast<unsigned>(7000 + c));
      std::uniform_int_distribution<std::size_t> pick(0, queries.size() - 1);
      for (int r = 0; r < kPerClient; ++r) {
        const std::size_t q = pick(rng);
        Submission s = engine.submit(queries[q]);
        while (s.status == SubmitStatus::kQueueFull) {
          std::this_thread::yield();
          s = engine.submit(queries[q]);
        }
        ASSERT_TRUE(s.accepted());
        if (!fixes_identical(s.result.get(), expected[q])) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(EngineBackends, QuantizedDecodesTrackTheDenseModel) {
  // Not bit-identity (int8 is lossy vs float32) but sanity: the quantized
  // path must still be the same model, so decoded classes should mostly
  // agree and confidences stay valid probabilities.
  const auto& localizer = reference_localizer();
  const PlanBackend quantized(localizer, PlanBackend::Precision::kInt8);
  EXPECT_GT(quantized.plan()->stats().packed_bytes, 0u);
  EXPECT_LT(quantized.plan()->stats().packed_bytes,
            localizer.model().parameter_bytes());
  const auto queries = query_pool(64);
  ASSERT_FALSE(queries.empty());
  const auto dense_fixes = localizer.locate_batch(queries);
  const auto quant_fixes = quantized.locate_batch(queries);
  std::size_t agree = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_GT(quant_fixes[i].confidence, 0.0);
    EXPECT_LT(quant_fixes[i].confidence, 1.0);
    if (quant_fixes[i].fine_class == dense_fixes[i].fine_class) ++agree;
  }
  // int8 with per-channel scales is a mild perturbation of small tanh nets;
  // a majority-agreement floor keeps the test robust to substrate noise.
  EXPECT_GE(agree * 2, queries.size());
}

// ---------------------------------------------------------------------------
// Work-conserving batching: no window, batches from backlog.
// ---------------------------------------------------------------------------

TEST(EngineBatching, LoneRequestIsNeverHeldByAWindow) {
  const auto queries = query_pool(1);
  ASSERT_FALSE(queries.empty());
  Engine engine(reference_localizer(), EngineConfig{});
  for (int r = 0; r < 64; ++r) {
    Submission s = engine.submit(queries[0]);
    ASSERT_TRUE(s.accepted());
    (void)s.result.get();
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.batch_wait_us, 0u);
  EXPECT_EQ(stats.queue_wait_us.count(), 64u);
  // The minimum, not a percentile: a window would floor every lone
  // request's wait at the window, while a slow host only stretches some.
  EXPECT_LT(stats.queue_wait_us.min_recorded(), 200.0);
}

/// fp32 plan backend whose first locate_batch reports that it has entered
/// and then blocks until released — holds a 1-worker engine busy while a
/// backlog forms behind it.
class GatedBackend final : public WifiBackend {
 public:
  struct Gate {
    std::atomic<bool> first{true};
    std::latch entered{1};
    std::latch release{1};
  };

  GatedBackend(const serve::WifiLocalizer& localizer, std::shared_ptr<Gate> gate)
      : inner_(localizer), gate_(std::move(gate)) {}

  std::vector<serve::Fix> locate_batch(
      std::span<const serve::RssiVector> queries) const override {
    if (gate_->first.exchange(false)) {
      gate_->entered.count_down();
      gate_->release.wait();
    }
    return inner_.locate_batch(queries);
  }
  std::size_t input_dim() const override { return inner_.input_dim(); }
  std::unique_ptr<WifiBackend> clone() const override {
    return std::make_unique<GatedBackend>(reference_localizer(), gate_);
  }
  std::string name() const override { return "gated-dense"; }

 private:
  PlanBackend inner_;
  std::shared_ptr<Gate> gate_;
};

TEST(EngineBatching, BacklogStillCoalescesAtTheDefaults) {
  const auto& localizer = reference_localizer();
  const auto queries = query_pool(8);
  ASSERT_EQ(queries.size(), 8u);
  auto gate = std::make_shared<GatedBackend::Gate>();
  EngineConfig cfg;
  cfg.workers = 1;
  Engine engine(std::make_unique<GatedBackend>(localizer, gate), cfg);

  std::vector<std::future<serve::Fix>> futures;
  Submission first = engine.submit(queries[0]);
  ASSERT_TRUE(first.accepted());
  futures.push_back(std::move(first.result));
  gate->entered.wait();  // the lone worker is busy with a batch of one
  std::vector<Submission> backlog;
  for (std::size_t i = 1; i < queries.size(); ++i) {
    backlog.push_back(engine.submit(queries[i]));
  }
  gate->release.count_down();  // before any ASSERT can leave the worker parked
  for (Submission& s : backlog) {
    ASSERT_TRUE(s.accepted());
    futures.push_back(std::move(s.result));
  }

  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_TRUE(fixes_identical(futures[i].get(), localizer.locate(queries[i])))
        << "query " << i;
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.batches, 2u);  // the lone first request, then the backlog
  EXPECT_EQ(stats.batch_size.max_recorded(), 7.0);
}

// ---------------------------------------------------------------------------
// Completion notifiers.
// ---------------------------------------------------------------------------

/// Counts notifier calls per tag; when `batch` is filled, each call also
/// counts the batch futures that were still unsettled at that moment.
class NotifyProbe {
 public:
  std::function<void()> notifier(std::size_t tag) {
    return [this, tag] {
      std::lock_guard<std::mutex> lock(mu_);
      ++calls_[tag];
      ++total_;
      for (const std::shared_future<serve::Fix>& result : batch) {
        if (result.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
          ++unsettled_;
        }
      }
      cv_.notify_all();
    };
  }
  bool wait_total(int total) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(5), [&] { return total_ >= total; });
  }
  int calls(std::size_t tag) {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_[tag];
  }
  int total() {
    std::lock_guard<std::mutex> lock(mu_);
    return total_;
  }
  int unsettled() {
    std::lock_guard<std::mutex> lock(mu_);
    return unsettled_;
  }

  /// Filled before the worker may settle any of them.
  std::vector<std::shared_future<serve::Fix>> batch;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::size_t, int> calls_;
  int total_ = 0;
  int unsettled_ = 0;
};

TEST(EngineNotify, EachNotifierFiresOnceAfterItsWholeBatchSettled) {
  const auto queries = query_pool(8);
  ASSERT_EQ(queries.size(), 8u);
  auto gate = std::make_shared<GatedBackend::Gate>();
  EngineConfig cfg;
  cfg.workers = 1;
  Engine engine(std::make_unique<GatedBackend>(reference_localizer(), gate), cfg);
  NotifyProbe probe;
  Submission first = engine.submit(queries[0]);
  ASSERT_TRUE(first.accepted());
  gate->entered.wait();  // the backlog below becomes one batch of seven
  std::vector<Submission> backlog;
  for (std::size_t i = 1; i < queries.size(); ++i) {
    SubmitOptions options;
    options.notify = probe.notifier(i);
    backlog.push_back(engine.submit(queries[i], options));
  }
  for (Submission& s : backlog) {
    if (s.accepted()) probe.batch.push_back(s.result.share());
  }
  gate->release.count_down();
  ASSERT_EQ(probe.batch.size(), queries.size() - 1);
  ASSERT_TRUE(probe.wait_total(static_cast<int>(queries.size() - 1)));
  for (std::size_t i = 1; i < queries.size(); ++i) {
    EXPECT_EQ(probe.calls(i), 1) << "request " << i;
    EXPECT_TRUE(probe.batch[i - 1].get() == reference_localizer().locate(queries[i]));
  }
  EXPECT_EQ(probe.unsettled(), 0) << "a notifier ran before its batch was settled";
  EXPECT_EQ(engine.stats().batches, 2u);
}

TEST(EngineNotify, ExpiryAndCloseSessionCallTheNotifier) {
  const serve::WifiLocalizer wifi = serve::WifiLocalizer::from_model(engine_fixture().model);
  const auto& imf = imu_engine_fixture();
  const serve::ImuLocalizer imu = serve::ImuLocalizer::from_model(imf.tracker);
  // One parking per phase; declared before the engine, so the worker has
  // left every wait before they go.
  std::latch parked[3] = {std::latch{1}, std::latch{1}, std::latch{1}};
  std::latch release[3] = {std::latch{1}, std::latch{1}, std::latch{1}};
  EngineConfig cfg;
  cfg.workers = 1;
  Engine engine(wifi, imu, cfg);
  // A failed ASSERT must not leave the worker parked for the engine's join.
  struct ReleaseAll {
    std::latch* release;
    ~ReleaseAll() {
      for (std::size_t phase = 0; phase < 3; ++phase) {
        if (!release[phase].try_wait()) release[phase].count_down();
      }
    }
  } release_all{release};
  const auto queries = query_pool(1);
  ASSERT_FALSE(queries.empty());
  const serve::ImuSegment segment(imu.segment_dim(), 0.0f);
  NotifyProbe probe;
  // Parks the lone worker inside a notifier (never do this outside a test)
  // so the requests that follow wait queued until release.
  const auto park = [&](std::size_t phase) {
    SubmitOptions options;
    options.notify = [&, phase] {
      parked[phase].count_down();
      release[phase].wait();
    };
    ASSERT_TRUE(engine.submit(queries[0], options).accepted());
    parked[phase].wait();
  };
  const auto deadline_options = [&](std::size_t tag) {
    SubmitOptions options;
    options.notify = probe.notifier(tag);
    options.expires_in_us(50'000);
    return options;
  };

  {  // Expiry in the shared queue.
    park(0);
    Submission lapsing = engine.submit(queries[0], deadline_options(0));
    ASSERT_TRUE(lapsing.accepted());
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    release[0].count_down();
    ASSERT_TRUE(probe.wait_total(1));
    EXPECT_THROW(lapsing.result.get(), DeadlineExpired);
  }
  const auto session = engine.open_session(imf.exp.split.test.paths[0].start);
  ASSERT_TRUE(session.has_value());
  {  // Expiry in a session FIFO.
    park(1);
    Submission lapsing = engine.track(*session, segment, deadline_options(1));
    ASSERT_TRUE(lapsing.accepted());
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    release[1].count_down();
    ASSERT_TRUE(probe.wait_total(2));
    EXPECT_THROW(lapsing.result.get(), DeadlineExpired);
  }
  {  // close_session fails the pending updates and notifies on its caller.
    park(2);
    std::vector<Submission> pending;
    for (std::size_t tag = 2; tag < 4; ++tag) {
      SubmitOptions options;
      options.notify = probe.notifier(tag);
      pending.push_back(engine.track(*session, segment, options));
      ASSERT_TRUE(pending.back().accepted());
    }
    EXPECT_TRUE(engine.close_session(*session));
    EXPECT_EQ(probe.total(), 4) << "close_session notifies before it returns";
    release[2].count_down();
    for (Submission& s : pending) EXPECT_THROW(s.result.get(), std::runtime_error);
  }
  for (std::size_t tag = 0; tag < 4; ++tag) EXPECT_EQ(probe.calls(tag), 1) << tag;
}

TEST(EngineSessions, RegistryRejectsBadHandlesAndDimensions) {
  const auto& wf = engine_fixture();
  const auto& imf = imu_engine_fixture();
  const serve::WifiLocalizer wifi = serve::WifiLocalizer::from_model(wf.model);
  const serve::ImuLocalizer imu = serve::ImuLocalizer::from_model(imf.tracker);
  Engine engine(wifi, imu);

  // Unknown session id.
  EXPECT_EQ(engine.track(9999, serve::ImuSegment(imu.segment_dim(), 0.0f)).status,
            SubmitStatus::kNoSession);
  EXPECT_FALSE(engine.close_session(9999));

  const auto session = engine.open_session(imf.exp.split.test.paths[0].start);
  ASSERT_TRUE(session.has_value());
  // Wrong segment width.
  EXPECT_EQ(engine.track(*session, serve::ImuSegment(3, 0.0f)).status,
            SubmitStatus::kBadDimension);
  // Close, then the handle is dead.
  EXPECT_TRUE(engine.close_session(*session));
  EXPECT_EQ(engine.track(*session, serve::ImuSegment(imu.segment_dim(), 0.0f)).status,
            SubmitStatus::kNoSession);

  // Wi-Fi-only engines have no session registry.
  Engine wifi_only(wifi);
  EXPECT_FALSE(wifi_only.has_imu());
  EXPECT_FALSE(wifi_only.open_session(geo::Point2{0.0, 0.0}).has_value());
}

}  // namespace
}  // namespace noble::engine
