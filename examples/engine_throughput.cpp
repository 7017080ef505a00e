// Engine tour — many concurrent clients, one micro-batching engine:
//  1. train a NObLe Wi-Fi model on a synthetic campus,
//  2. wrap it in a noble::engine::Engine (bounded queue -> batcher ->
//     shared-nothing localizer replicas),
//  3. fire asynchronous submit()s from several client threads and read the
//     fixes back through std::future,
//  4. verify the engine answers are bit-identical to direct locate(),
//  5. print the telemetry surface: queue depth, batch-size distribution and
//     end-to-end latency percentiles.
//
// Run: ./example_engine_throughput
#include <chrono>
#include <cstdio>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/noble_wifi.h"
#include "engine/engine.h"
#include "serve/wifi_localizer.h"

int main() {
  using namespace noble;
  using namespace noble::engine;

  std::printf("noble::engine tour: queue -> batcher -> replicas\n\n");

  // 1. Train (scaled by NOBLE_SCALE inside the experiment builder).
  core::WifiExperimentConfig config;
  config.total_samples = 3000;
  config.seed = 11;
  core::WifiExperiment experiment = core::make_uji_experiment(config);
  core::NobleWifiConfig model_config;
  model_config.quantize.tau = 3.0;
  model_config.quantize.coarse_l = 15.0;
  model_config.epochs = 10;
  core::NobleWifiModel model(model_config);
  model.fit(experiment.split.train, &experiment.split.val);
  const serve::WifiLocalizer localizer = serve::WifiLocalizer::from_model(model);
  std::printf("trained: %zu APs -> %zu neighborhood classes\n", model.input_dim(),
              model.quantizer().num_fine_classes());

  // 2. The engine: 2 workers, each with its own deep-copied replica; up to
  // 16 queued requests coalesced per network pass (a lone request is served
  // at once, batches form from backlog); at most 512 queued requests before
  // submit() reports kQueueFull.
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.max_batch = 16;
  cfg.queue_cap = 512;
  Engine engine(localizer, cfg);

  // 3. Concurrent clients submit every test scan and collect futures.
  std::vector<serve::RssiVector> queries;
  for (const auto& sample : experiment.split.test.samples)
    queries.push_back(sample.rssi);
  std::printf("serving %zu scans from 4 client threads...\n\n", queries.size());

  std::vector<std::vector<std::pair<std::size_t, std::future<serve::Fix>>>>
      per_client(4);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < per_client.size(); ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = c; i < queries.size(); i += per_client.size()) {
        Submission s = engine.submit(queries[i]);
        while (s.status == SubmitStatus::kQueueFull) {
          std::this_thread::yield();  // explicit backpressure: retry later
          s = engine.submit(queries[i]);
        }
        if (s.accepted()) per_client[c].emplace_back(i, std::move(s.result));
      }
    });
  }
  for (auto& t : clients) t.join();

  // 4. Every engine answer must be bit-identical to a direct locate().
  std::size_t checked = 0, mismatched = 0;
  for (auto& batch : per_client) {
    for (auto& [i, future] : batch) {
      const serve::Fix engine_fix = future.get();
      const serve::Fix direct_fix = localizer.locate(queries[i]);
      ++checked;
      if (engine_fix.building != direct_fix.building ||
          engine_fix.floor != direct_fix.floor ||
          engine_fix.fine_class != direct_fix.fine_class ||
          engine_fix.position != direct_fix.position ||
          engine_fix.confidence != direct_fix.confidence) {
        ++mismatched;
      }
    }
  }
  std::printf("equivalence: %zu fixes checked, %zu mismatches%s\n", checked,
              mismatched, mismatched == 0 ? " (bit-identical to locate())" : "");

  // 5. Telemetry: what the batcher actually did.
  const EngineStats stats = engine.stats();
  std::printf("\ntelemetry:\n");
  std::printf("  submitted %llu, completed %llu, rejected %llu, queue depth %zu\n",
              static_cast<unsigned long long>(stats.submitted),
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.rejected), stats.queue_depth);
  std::printf("  micro-batches: %llu, size mean %.1f, largest %.0f (cap %zu)\n",
              static_cast<unsigned long long>(stats.batches),
              stats.batch_size.mean(), stats.batch_size.max_recorded(),
              cfg.max_batch);
  const LatencySummary latency = summarize_latency_us(stats.latency_us);
  std::printf("  end-to-end latency: p50 %.0f us, p95 %.0f us, p99 %.0f us\n",
              latency.p50_us, latency.p95_us, latency.p99_us);

  return mismatched == 0 && checked == queries.size() ? 0 : 1;
}
