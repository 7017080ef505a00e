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

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "core/baselines.h"
#include "core/evaluate.h"
#include "core/experiment.h"
#include "core/noble_imu.h"
#include "core/noble_wifi.h"
#include "engine/engine.h"
#include "fleet/router.h"

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

/// Mixed interactive + bulk closed-loop load against an in-process
/// fleet::Router — the workload generator bench_admission_classes drives.
///
/// Interactive clients are paced (think time between fixes) and wait for
/// each fix (submit, await, think); bulk clients flood with a bounded
/// in-flight window and never retry — a shed (kQueueFull) or expiry is
/// counted, not resubmitted.
/// Scans spread across `shard_keys` round-robin and across the query pool
/// per client.
struct MixedLoadConfig {
  std::size_t interactive_clients = 2;
  std::size_t interactive_requests = 1000;  ///< per client
  std::uint64_t interactive_pace_us = 200;  ///< think time between fixes
  std::size_t bulk_clients = 2;
  std::size_t bulk_requests = 2000;    ///< per client (a floor when sustaining)
  std::uint64_t bulk_deadline_us = 0;  ///< per-submission budget; 0 = none
  std::size_t bulk_inflight_window = 32;
  /// Keep the bulk flood running until every interactive client finishes
  /// (bulk_requests becomes a floor) — what an overload bench needs: the
  /// interactive stream must be measured *under* the flood, not after it.
  bool bulk_sustain = false;
  /// false = no-priority baseline: the bulk stream submits with default
  /// options (interactive class, no deadline), so both streams share one
  /// undifferentiated queue. Interactive submits default-class either way.
  bool classed = true;
};

/// Per-class outcome counters + client-side latency of one mixed-load run.
struct ClassLoadReport {
  std::uint64_t attempted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;   ///< kQueueFull (and any routing verdict)
  std::uint64_t expired = 0;    ///< kExpired at submit + DeadlineExpired futures
  std::uint64_t completed = 0;  ///< futures that resolved with a fix
  Histogram latency_us = Histogram::latency_us();  ///< submit -> fix, client side
};

struct MixedLoadReport {
  ClassLoadReport interactive;
  ClassLoadReport bulk;
  double wall_seconds = 0.0;
  double qps = 0.0;  ///< completed fixes per second, both classes
};

MixedLoadReport run_mixed_load(fleet::Router& router,
                               const std::vector<std::string>& shard_keys,
                               const std::vector<serve::RssiVector>& queries,
                               const MixedLoadConfig& cfg);

/// Prints one ClassLoadReport as a bench row (counters + percentiles).
void print_class_load_row(const std::string& label, const ClassLoadReport& report);

/// Prints the run banner: experiment sizes, seed, scale.
void print_banner(const std::string& bench_name, const std::string& paper_ref);

/// Prints one PositionReport row (mean/median/structure).
void print_position_row(const std::string& model, const core::PositionReport& report,
                        const std::string& paper_mean, const std::string& paper_median);

/// Output path for figure CSV artifacts (honors NOBLE_BENCH_OUT, default ".").
std::string artifact_path(const std::string& filename);

}  // namespace noble::bench

#endif  // NOBLE_BENCH_SUPPORT_BENCH_UTIL_H_
