// The pinned models and the query set. Sizes are bench_gateway_load's, so
// ledger numbers line up with the numbers quoted in earlier work.
#include "core/experiment.h"
#include "core/noble_imu.h"
#include "core/noble_wifi.h"
#include "ledger.h"
#include "serve/artifact.h"

namespace ledger {

namespace {

noble::core::WifiExperimentConfig wifi_experiment_config() {
  noble::core::WifiExperimentConfig cfg;
  cfg.total_samples = 3000;
  cfg.seed = 12;
  return cfg;
}

noble::core::ImuExperimentConfig imu_experiment_config() {
  noble::core::ImuExperimentConfig cfg;
  cfg.num_paths = 400;
  cfg.total_walk_time_s = 1000.0;
  cfg.readings_per_segment = 8;
  cfg.imu.ref_interval_s = 15.0;
  cfg.seed = 304;
  return cfg;
}

}  // namespace

Pool build_pool() {
  using namespace noble;
  Pool pool;
  const core::WifiExperiment wifi_exp = core::make_uji_experiment(wifi_experiment_config());
  const core::ImuExperiment imu_exp = core::make_imu_experiment(imu_experiment_config());

  for (const auto& sample : wifi_exp.split.test.samples) {
    pool.scans.push_back(sample.rssi);
    pool.scan_truth.push_back(sample.position);
  }
  const std::size_t dim = imu_exp.split.test.segment_dim;
  for (const auto& path : imu_exp.split.test.paths) {
    pool.paths.push_back(TestPath{path.start, path.end, pool.segments.size(),
                                  path.num_segments});
    for (std::size_t s = 0; s < path.num_segments; ++s) {
      pool.segments.emplace_back(
          path.features.begin() + static_cast<std::ptrdiff_t>(s * dim),
          path.features.begin() + static_cast<std::ptrdiff_t>((s + 1) * dim));
    }
  }

  const std::int64_t t0 = now_ns();
  core::NobleWifiConfig wifi_cfg;
  wifi_cfg.quantize.tau = 3.0;
  wifi_cfg.quantize.coarse_l = 15.0;
  wifi_cfg.epochs = 10;
  core::NobleWifiModel wifi_model(wifi_cfg);
  wifi_model.fit(wifi_exp.split.train, &wifi_exp.split.val);

  core::NobleImuConfig imu_cfg;
  imu_cfg.quantize.tau = 2.0;
  imu_cfg.epochs = 6;
  imu_cfg.projection_dim = 6;
  core::NobleImuTracker tracker(imu_cfg);
  tracker.fit(imu_exp.split.train);
  pool.train_s = static_cast<double>(now_ns() - t0) / 1e9;

  pool.wifi_artifact = serve::encode_model(wifi_model);
  pool.imu_artifact = serve::encode_model(tracker);
  return pool;
}

}  // namespace ledger
