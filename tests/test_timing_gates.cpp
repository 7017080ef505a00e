// Timing gates: the two performance bars the serving stack promises, as
// wall-clock comparisons inside one process.
//
//  - The AVX2 int8 kernel earns its keep: the packed int8 forward at the
//    engine's typical micro-batch runs at least 2x faster than the scalar
//    reference. Skipped when the dispatched ISA is not AVX2 (no AVX2 on the
//    host, or NOBLE_KERNEL=scalar).
//  - Tracing is cheap enough to leave on: a closed loop of interactive
//    locates with tracing at the default 1% sampling keeps its p50 within
//    5% (plus a 25 us floor) of tracing disabled.
//
// Each side of a comparison keeps its best of several runs, so a scheduler
// hiccup on one run cannot fail an honest build. The suite is RUN_SERIAL
// (tests/CMakeLists.txt): measured next to `ctest -j`'s other suites, both
// bars would measure CPU contention instead of the code.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "core/experiment.h"
#include "core/noble_wifi.h"
#include "fleet/router.h"
#include "kernels/kernels.h"
#include "linalg/matrix.h"
#include "obs/trace.h"
#include "serve/wifi_localizer.h"

namespace noble {
namespace {

using Clock = std::chrono::steady_clock;

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

  // Smoke-scale UJI sizing (3000 samples at NOBLE_SCALE=0.05). A bigger
  // model only adds compute per locate, and under sanitizers the scheduler
  // noise that comes with it swamps a 5% bound.
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
  const serve::WifiLocalizer localizer = serve::WifiLocalizer::from_model(model);
  std::vector<serve::RssiVector> queries;
  for (const auto& sample : experiment.split.test.samples) queries.push_back(sample.rssi);
  ASSERT_FALSE(queries.empty());

  fleet::Router router;
  fleet::ShardConfig shard;
  shard.key = "bldg-A";
  shard.engine.workers = std::clamp<std::size_t>(
      std::max(1u, std::thread::hardware_concurrency()), 2, 8);
  shard.engine.max_wait_us = 100;
  shard.engine.queue_cap = 4096;
  router.add_shard(shard, localizer);

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
      latency_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
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

}  // namespace
}  // namespace noble
