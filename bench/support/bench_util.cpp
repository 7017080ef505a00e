#include "support/bench_util.h"

#include <cstdio>

#include "common/config.h"
#include "kernels/kernels.h"

namespace noble::bench {

core::WifiExperimentConfig uji_config() {
  core::WifiExperimentConfig cfg;
  cfg.total_samples = 9000;  // scaled by NOBLE_SCALE inside the builder
  cfg.radio.aps_per_floor = 8;
  cfg.radio.shadowing_sigma_db = 6.5;
  cfg.radio.measurement_noise_db = 3.5;
  cfg.seed = static_cast<std::uint64_t>(env_int("NOBLE_SEED", 2021));
  return cfg;
}

core::WifiExperimentConfig ipin_config() {
  core::WifiExperimentConfig cfg = uji_config();
  cfg.total_samples = 3000;
  cfg.radio.aps_per_floor = 12;
  return cfg;
}

core::ImuExperimentConfig imu_config() {
  core::ImuExperimentConfig cfg;
  cfg.num_paths = 6857;  // paper's path count; scaled by NOBLE_SCALE
  cfg.readings_per_segment = 16;
  cfg.seed = static_cast<std::uint64_t>(env_int("NOBLE_SEED", 2021));
  return cfg;
}

core::NobleWifiConfig noble_wifi_config() {
  core::NobleWifiConfig cfg;
  cfg.quantize.tau = env_double("NOBLE_TAU", 2.0);
  cfg.quantize.coarse_l = cfg.quantize.tau * 5.0;
  cfg.epochs = static_cast<std::size_t>(env_int("NOBLE_EPOCHS", 30));
  return cfg;
}

core::RegressionConfig regression_config() {
  core::RegressionConfig cfg;
  cfg.epochs = static_cast<std::size_t>(env_int("NOBLE_EPOCHS", 30));
  return cfg;
}

core::NobleImuConfig noble_imu_config() {
  core::NobleImuConfig cfg;
  cfg.epochs = static_cast<std::size_t>(env_int("NOBLE_IMU_EPOCHS", 60));
  return cfg;
}

void print_banner(const std::string& bench_name, const std::string& paper_ref) {
  kernels::apply_env_override();  // honor NOBLE_KERNEL before reporting it
  std::printf("==============================================================\n");
  std::printf("NObLe reproduction bench: %s\n", bench_name.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("Kernel ISA: %s (avx2 %s; override with NOBLE_KERNEL=scalar|avx2|auto)\n",
              kernels::isa_name(kernels::active_isa()),
              kernels::avx2_supported() ? "available" : "unavailable");
  std::printf("NOBLE_SCALE=%.2f (synthetic substrate; see DESIGN.md for the\n",
              global_scale());
  std::printf("substitution table — shapes, not absolute numbers, are the target)\n");
  std::printf("==============================================================\n");
}

void print_position_row(const std::string& model, const core::PositionReport& report,
                        const std::string& paper_mean, const std::string& paper_median) {
  std::printf("%-28s paper(mean/med)=%7s/%-7s measured: mean=%6.2f m "
              "median=%6.2f m p90=%6.2f m | on-map=%5.1f%%\n",
              model.c_str(), paper_mean.c_str(), paper_median.c_str(),
              report.errors.mean, report.errors.median, report.errors.p90,
              100.0 * report.structure_score);
}

std::string artifact_path(const std::string& filename) {
  return env_string("NOBLE_BENCH_OUT", ".") + "/" + filename;
}

}  // namespace noble::bench
