// Shared support for the benchmark binaries: the paper-shaped experiment
// configurations every table/figure bench uses, and small printing helpers.
//
// All benches honor NOBLE_SCALE (sample-count multiplier), NOBLE_EPOCHS,
// NOBLE_TAU and NOBLE_MANIFOLD_DIM so the suite can be shrunk for smoke runs
// or grown toward paper scale on faster hardware, plus NOBLE_KERNEL
// (scalar|avx2|auto) to pin the compute-kernel ISA; the dispatched ISA is
// printed in every bench banner.
#ifndef NOBLE_BENCH_SUPPORT_BENCH_UTIL_H_
#define NOBLE_BENCH_SUPPORT_BENCH_UTIL_H_

#include <string>

#include "core/baselines.h"
#include "core/evaluate.h"
#include "core/experiment.h"
#include "core/noble_imu.h"
#include "core/noble_wifi.h"

namespace noble::bench {

/// UJI-like experiment sizing used by Tables I, II and Fig. 4.
core::WifiExperimentConfig uji_config();

/// IPIN-like experiment sizing (§IV-B text).
core::WifiExperimentConfig ipin_config();

/// IMU experiment sizing used by Table III and Fig. 5.
core::ImuExperimentConfig imu_config();

/// NObLe Wi-Fi hyperparameters matched to the synthetic substrate.
core::NobleWifiConfig noble_wifi_config();

/// Baseline regression hyperparameters (same budget as NObLe, §IV-B).
core::RegressionConfig regression_config();

/// NObLe IMU hyperparameters.
core::NobleImuConfig noble_imu_config();

/// Prints the run banner: experiment sizes, seed, scale.
void print_banner(const std::string& bench_name, const std::string& paper_ref);

/// Prints one PositionReport row (mean/median/structure).
void print_position_row(const std::string& model, const core::PositionReport& report,
                        const std::string& paper_mean, const std::string& paper_median);

/// Output path for figure CSV artifacts (honors NOBLE_BENCH_OUT, default ".").
std::string artifact_path(const std::string& filename);

}  // namespace noble::bench

#endif  // NOBLE_BENCH_SUPPORT_BENCH_UTIL_H_
