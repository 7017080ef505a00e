// Fleet tour — one campus, many buildings, one router:
//  1. train a NObLe Wi-Fi model on a synthetic campus,
//  2. stand up a noble::fleet::Router with two shards: "bldg-A" on one
//     two-worker engine, "bldg-B" on two single-worker replica engines,
//  3. route every test scan to both shards,
//  4. gate: every fix from either shard must be bit-identical to direct
//     locate(), then print the merged FleetStats surface.
//
// Exits non-zero on any mismatch, so the smoke tier doubles as an
// end-to-end router-vs-direct equivalence check.
//
// Run: ./example_fleet_router
#include <cstdio>
#include <vector>

#include "core/experiment.h"
#include "core/noble_wifi.h"
#include "fleet/router.h"
#include "serve/wifi_localizer.h"

int main() {
  using namespace noble;

  std::printf("noble::fleet tour: shards -> engines -> backend replicas\n\n");

  // 1. Train (scaled by NOBLE_SCALE inside the experiment builder).
  core::WifiExperimentConfig config;
  config.total_samples = 3000;
  config.seed = 12;
  core::WifiExperiment experiment = core::make_uji_experiment(config);
  core::NobleWifiConfig model_config;
  model_config.quantize.tau = 3.0;
  model_config.quantize.coarse_l = 15.0;
  model_config.epochs = 10;
  core::NobleWifiModel model(model_config);
  model.fit(experiment.split.train, &experiment.split.val);
  const serve::WifiLocalizer localizer = serve::WifiLocalizer::from_model(model);
  std::printf("trained: %zu APs -> %zu neighborhood classes\n\n", model.input_dim(),
              model.quantizer().num_fine_classes());

  // 2. The router: two shards over the same artifact with different serving
  // profiles (a real fleet would load one artifact per building).
  fleet::Router router;
  fleet::ShardConfig shard_a;
  shard_a.key = "bldg-A";
  shard_a.engine.workers = 2;
  shard_a.engine.max_batch = 16;
  router.add_shard(shard_a, localizer);

  fleet::ShardConfig shard_b;
  shard_b.key = "bldg-B";
  shard_b.engines = 2;  // kQueueFull spills to the sibling replica engine
  shard_b.engine.workers = 1;
  shard_b.engine.max_batch = 16;
  router.add_shard(shard_b, localizer);

  std::vector<serve::RssiVector> queries;
  for (const auto& sample : experiment.split.test.samples)
    queries.push_back(sample.rssi);
  std::printf("routing %zu scans to 2 shards (1 engine / 2 engines)...\n",
              queries.size());

  // 3 + 4. Route everything, gate against direct inference per shard.
  std::size_t checked = 0, mismatched = 0;
  auto gate = [&](const char* key, const serve::RssiVector& q,
                  const serve::Fix& expected) {
    engine::Submission s = router.submit(key, q);
    while (s.status == engine::SubmitStatus::kQueueFull) {
      s = router.submit(key, q);
    }
    if (!s.accepted()) {
      ++mismatched;
      return;
    }
    const serve::Fix fix = s.result.get();
    ++checked;
    if (!(fix == expected)) ++mismatched;
  };
  for (const auto& q : queries) {
    const serve::Fix expected = localizer.locate(q);
    gate("bldg-A", q, expected);
    gate("bldg-B", q, expected);
  }
  std::printf("equivalence: %zu fixes checked, %zu mismatches%s\n", checked,
              mismatched, mismatched == 0 ? " (routed == direct)" : "");

  const fleet::FleetStats stats = router.stats();
  std::printf("\nfleet telemetry (%zu shards, %zu engines):\n", stats.shards.size(),
              stats.num_engines);
  for (const auto& [key, shard_stats] : stats.shards) {
    const LatencySummary latency = summarize_latency_us(shard_stats.latency_us);
    std::printf("  %-8s completed %6llu, batches %5llu, p50 %7.0f us, p99 %7.0f us\n",
                key.c_str(), static_cast<unsigned long long>(shard_stats.completed),
                static_cast<unsigned long long>(shard_stats.batches),
                latency.p50_us, latency.p99_us);
  }
  const LatencySummary merged = summarize_latency_us(stats.total.latency_us);
  std::printf("  %-8s completed %6llu (merged p50 %7.0f us, p95 %7.0f us, "
              "p99 %7.0f us)\n",
              "total", static_cast<unsigned long long>(stats.total.completed),
              merged.p50_us, merged.p95_us, merged.p99_us);

  const bool all_checked = checked == 2 * queries.size();
  return mismatched == 0 && all_checked ? 0 : 1;
}
