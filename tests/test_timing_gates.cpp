// Timing gates: the three performance bars the serving stack promises, as
// wall-clock comparisons inside one process.
//
//  - The AVX2 int8 kernel earns its keep: the packed int8 forward at the
//    engine's typical micro-batch runs at least 2x faster than the scalar
//    reference. Skipped when the dispatched ISA is not AVX2 (no AVX2 on the
//    host, or NOBLE_KERNEL=scalar).
//  - Tracing is cheap enough to leave on: a closed loop of interactive
//    locates with tracing at the default 1% sampling keeps its p50 within
//    5% (plus a 25 us floor) of tracing disabled.
//  - Class-aware admission pays off end to end: under a bulk flood, paced
//    interactive clients see a strictly lower p99 when bulk is capped,
//    classed and deadlined than when both streams share one unclassed
//    queue. Every classed pass also holds the admission contract: no
//    interactive rejection, some bulk shed, and post-flood fixes
//    bit-identical to direct locate().
//
// Each side of a comparison keeps its best of several runs, so a scheduler
// hiccup on one run cannot fail an honest build. The suite is RUN_SERIAL
// (tests/CMakeLists.txt): measured next to `ctest -j`'s other suites, the
// bars would measure CPU contention instead of the code.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "core/experiment.h"
#include "core/noble_wifi.h"
#include "engine/engine.h"
#include "fleet/router.h"
#include "kernels/kernels.h"
#include "linalg/matrix.h"
#include "obs/trace.h"
#include "serve/wifi_localizer.h"

namespace noble {
namespace {

using Clock = std::chrono::steady_clock;

double us_since(const Clock::time_point& t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// The smoke-scale UJI model the serving gates drive, trained once for the
/// suite. Smoke-scale sizing (3000 samples at NOBLE_SCALE=0.05): a bigger
/// model only adds compute per locate, and under sanitizers the scheduler
/// noise that comes with it swamps the bounds.
struct SmokeUji {
  serve::WifiLocalizer localizer;
  std::vector<serve::RssiVector> queries;
};

const SmokeUji& smoke_uji() {
  static const SmokeUji* smoke = [] {
    core::WifiExperimentConfig wifi_config;
    wifi_config.total_samples = 150;
    wifi_config.seed = 12;
    const core::WifiExperiment experiment = core::make_uji_experiment(wifi_config);
    core::NobleWifiConfig model_config;
    model_config.quantize.tau = 3.0;
    model_config.quantize.coarse_l = 15.0;
    model_config.epochs = 2;
    core::NobleWifiModel model(model_config);
    model.fit(experiment.split.train, &experiment.split.val);
    std::vector<serve::RssiVector> queries;
    for (const auto& sample : experiment.split.test.samples) queries.push_back(sample.rssi);
    return new SmokeUji{serve::WifiLocalizer::from_model(model), std::move(queries)};
  }();
  return *smoke;
}

/// Seconds for the best of `repeats` timed runs of `iters` calls to fn.
template <typename Fn>
double best_seconds(int repeats, int iters, Fn&& fn) {
  double best = 1e100;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) fn();
    best = std::min(best, std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return best;
}

TEST(TimingGates, Avx2Int8PackedForwardIsAtLeastTwiceScalar) {
  const kernels::Isa dispatched = kernels::active_isa();
  if (dispatched != kernels::Isa::kAvx2) {
    GTEST_SKIP() << "dispatched ISA is " << kernels::isa_name(dispatched)
                 << ", not avx2";
  }
  struct IsaGuard {
    ~IsaGuard() { kernels::force_isa(std::nullopt); }
  } guard;

  // 256x512 is near the serving model's hidden layers; batch 8 is the
  // engine's typical micro-batch.
  constexpr std::size_t k = 256, n = 512, batch = 8;
  Rng rng(2021);
  std::vector<std::int8_t> weights(k * n);
  std::vector<float> scales(n);
  std::vector<float> bias(n);
  for (auto& v : weights) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  for (auto& s : scales) s = static_cast<float>(rng.uniform(0.001, 0.1));
  for (auto& b : bias) b = static_cast<float>(rng.uniform(-0.5, 0.5));
  const kernels::PackedQuantized packed =
      kernels::pack_quantized(kernels::QuantizedView{weights.data(), scales.data(), k, n});
  linalg::Mat x(batch, k);
  for (std::size_t i = 0; i < batch; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      // ~30% exact zeros, like real RSSI feature rows.
      if (!rng.bernoulli(0.3)) x(i, j) = static_cast<float>(rng.uniform(-1.5, 1.5));
    }
  }
  // Bias-only epilogue: the activation epilogues are shared scalar code
  // (the bit-identity contract) and would dilute the kernel speedup.
  kernels::Epilogue ep;
  ep.bias = bias.data();

  constexpr int kRepeats = 3;
  constexpr int kIters = 20;
  linalg::Mat y;
  kernels::force_isa(kernels::Isa::kScalar);
  const double scalar_s = best_seconds(
      kRepeats, kIters, [&] { kernels::quantized_forward(x, packed, ep, y); });
  kernels::force_isa(dispatched);
  const double avx2_s = best_seconds(
      kRepeats, kIters, [&] { kernels::quantized_forward(x, packed, ep, y); });
  EXPECT_GE(scalar_s / avx2_s, 2.0) << "scalar " << 1e6 * scalar_s / kIters << " us/it vs avx2 "
                          << 1e6 * avx2_s / kIters << " us/it";
}

TEST(TimingGates, TracingAtOnePercentSamplingKeepsP50WithinFivePercent) {
  struct RestoreTracer {
    obs::TraceConfig saved = obs::Tracer::global().config();
    ~RestoreTracer() { obs::Tracer::global().configure(saved); }
  } restore;

  const SmokeUji& smoke = smoke_uji();
  const std::vector<serve::RssiVector>& queries = smoke.queries;
  ASSERT_FALSE(queries.empty());

  fleet::Router router;
  fleet::ShardConfig shard;
  shard.key = "bldg-A";
  shard.engine.workers = std::clamp<std::size_t>(
      std::max(1u, std::thread::hardware_concurrency()), 2, 8);
  shard.engine.queue_cap = 4096;
  router.add_shard(shard, smoke.localizer);

  // One pass: a strict closed loop of interactive locates, each carrying a
  // stage trace when tracing is on; returns the client-side p50 in us.
  constexpr std::size_t kPerPass = 1000;
  const auto run_pass = [&]() -> std::optional<double> {
    std::vector<double> latency_us;
    latency_us.reserve(kPerPass);
    for (std::size_t i = 0; i < kPerPass; ++i) {
      engine::SubmitOptions options;
      if (obs::Tracer::global().enabled() &&
          (options.trace = obs::Tracer::global().start(i)) != nullptr) {
        options.trace->stamp(obs::Mark::kSubmit);
      }
      const auto t0 = Clock::now();
      engine::Submission s = router.submit("bldg-A", queries[i % queries.size()], options);
      if (!s.accepted()) return std::nullopt;
      s.result.get();
      latency_us.push_back(us_since(t0));
    }
    return percentile(std::move(latency_us), 50.0);
  };

  // An unmeasured pass first, so the router is warm before either mode is
  // timed. Then alternate the modes to decorrelate machine drift and keep
  // each one's best.
  ASSERT_TRUE(run_pass().has_value());
  constexpr int kPassesPerMode = 3;
  double best[2] = {1e18, 1e18};  // [0] tracing off, [1] on at 1% sampling
  for (int pass = 0; pass < 2 * kPassesPerMode; ++pass) {
    const int mode = pass % 2;
    obs::TraceConfig cfg = restore.saved;
    cfg.enabled = mode == 1;
    cfg.sample_rate = 0.01;
    obs::Tracer::global().configure(cfg);
    const std::optional<double> p50 = run_pass();
    ASSERT_TRUE(p50.has_value()) << "a closed-loop locate was not admitted";
    best[mode] = std::min(best[mode], *p50);
  }
  EXPECT_LE(best[1], best[0] * 1.05 + 25.0)
      << "p50 " << best[0] << " us with tracing off vs " << best[1]
      << " us at 1% sampling";
}

/// What one admission phase shows the bulk-flood gate.
struct AdmissionPhase {
  double interactive_p99_us = 0.0;
  std::uint64_t interactive_rejected = 0;
  std::uint64_t bulk_shed = 0;      ///< rejected at submit + expired in queue
  std::size_t spot_mismatches = 0;  ///< post-flood fixes != direct locate()
};

/// One phase on a fresh engine (2 workers, batches of 16, 256 queue
/// slots): 2 interactive clients each make 1000 paced submit ->
/// get calls with 200 us think time, while 2 bulk clients flood with a
/// 256-deep in-flight window until the interactive clients finish. Classed:
/// bulk holds at most 64 slots and submits as kBulk with a 5000 us deadline.
/// Unclassed: no caps, and bulk submits with default options.
AdmissionPhase run_admission_phase(const SmokeUji& smoke, bool classed) {
  constexpr std::size_t kClients = 2;
  constexpr std::size_t kInteractiveRequests = 1000;
  constexpr std::size_t kBulkWindow = 256;
  engine::EngineConfig cfg;
  cfg.workers = 2;
  cfg.max_batch = 16;
  cfg.queue_cap = 256;
  if (classed) cfg.bulk_cap = 64;
  engine::Engine engine(smoke.localizer, cfg);
  const std::vector<serve::RssiVector>& queries = smoke.queries;

  std::vector<std::vector<double>> latency_us(kClients);
  std::atomic<std::uint64_t> interactive_rejected{0};
  std::atomic<std::uint64_t> bulk_shed{0};
  std::atomic<std::size_t> interactive_live{kClients};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      latency_us[c].reserve(kInteractiveRequests);
      for (std::size_t r = 0; r < kInteractiveRequests; ++r) {
        const auto t0 = Clock::now();
        engine::Submission s = engine.submit(queries[(c * 7919 + r) % queries.size()]);
        if (s.accepted()) {
          s.result.get();
          latency_us[c].push_back(us_since(t0));
        } else {
          interactive_rejected.fetch_add(1);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      interactive_live.fetch_sub(1);
    });
  }
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::future<serve::Fix>> inflight;
      const auto settle = [&] {
        for (std::future<serve::Fix>& result : inflight) {
          try {
            result.get();
          } catch (const engine::DeadlineExpired&) {
            bulk_shed.fetch_add(1);
          }
        }
        inflight.clear();
      };
      for (std::size_t r = 0; interactive_live.load() > 0; ++r) {
        engine::SubmitOptions options;
        if (classed) options = engine::SubmitOptions::bulk().expires_in_us(5000);
        engine::Submission s =
            engine.submit(queries[((c + 1) * 104729 + r) % queries.size()], options);
        if (!s.accepted()) {
          bulk_shed.fetch_add(1);  // shed, not retried
          continue;
        }
        inflight.push_back(std::move(s.result));
        if (inflight.size() >= kBulkWindow) settle();
      }
      settle();
    });
  }
  for (std::thread& client : clients) client.join();

  AdmissionPhase phase;
  std::vector<double> all_latency_us;
  for (const std::vector<double>& mine : latency_us) {
    all_latency_us.insert(all_latency_us.end(), mine.begin(), mine.end());
  }
  phase.interactive_p99_us = percentile(std::move(all_latency_us), 99.0);
  phase.interactive_rejected = interactive_rejected.load();
  phase.bulk_shed = bulk_shed.load();
  // The engine that just shed a flood still serves the exact bits.
  for (std::size_t i = 0; i < std::min<std::size_t>(8, queries.size()); ++i) {
    engine::Submission s = engine.submit(queries[i]);
    if (!s.accepted() || !(s.result.get() == smoke.localizer.locate(queries[i]))) {
      ++phase.spot_mismatches;
    }
  }
  return phase;
}

TEST(TimingGates, ClassedAdmissionBeatsUnclassedInteractiveP99UnderBulkFlood) {
  const SmokeUji& smoke = smoke_uji();
  ASSERT_FALSE(smoke.queries.empty());
  for (std::size_t i = 0; i < std::min<std::size_t>(64, smoke.queries.size()); ++i) {
    (void)smoke.localizer.locate(smoke.queries[i]);  // warm-up
  }
  // Alternating pairs: one pass's p99 rests on ~20 tail samples a scheduler
  // hiccup can flip, so each mode keeps its lowest.
  constexpr int kPairs = 3;
  double classed_p99 = 1e18;
  double unclassed_p99 = 1e18;
  for (int pair = 0; pair < kPairs; ++pair) {
    const AdmissionPhase classed = run_admission_phase(smoke, true);
    EXPECT_EQ(classed.interactive_rejected, 0u) << "pair " << pair;
    EXPECT_GT(classed.bulk_shed, 0u) << "pair " << pair << ": the flood was not shed";
    EXPECT_EQ(classed.spot_mismatches, 0u) << "pair " << pair;
    const AdmissionPhase unclassed = run_admission_phase(smoke, false);
    classed_p99 = std::min(classed_p99, classed.interactive_p99_us);
    unclassed_p99 = std::min(unclassed_p99, unclassed.interactive_p99_us);
  }
  EXPECT_LT(classed_p99, unclassed_p99)
      << "lowest interactive p99 " << classed_p99 << " us classed vs " << unclassed_p99
      << " us unclassed";
}

}  // namespace
}  // namespace noble
