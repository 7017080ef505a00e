#include "support/bench_util.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <thread>
#include <utility>

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

namespace {

using LoadClock = std::chrono::steady_clock;

double load_us_since(const LoadClock::time_point& t0) {
  return std::chrono::duration<double, std::micro>(LoadClock::now() - t0).count();
}

void merge_class_report(ClassLoadReport& into, const ClassLoadReport& from) {
  into.attempted += from.attempted;
  into.accepted += from.accepted;
  into.rejected += from.rejected;
  into.expired += from.expired;
  into.completed += from.completed;
  into.latency_us.merge(from.latency_us);
}

/// Resolves one accepted future into the report: a fix or a deadline lapse.
void settle(ClassLoadReport& report, const LoadClock::time_point& submitted_at,
            std::future<noble::serve::Fix>& result) {
  try {
    (void)result.get();
    ++report.completed;
    report.latency_us.record(load_us_since(submitted_at));
  } catch (const engine::DeadlineExpired&) {
    ++report.expired;
  }
}

}  // namespace

MixedLoadReport run_mixed_load(fleet::Router& router,
                               const std::vector<std::string>& shard_keys,
                               const std::vector<serve::RssiVector>& queries,
                               const MixedLoadConfig& cfg) {
  MixedLoadReport report;
  if (shard_keys.empty() || queries.empty()) return report;
  std::vector<ClassLoadReport> interactive(cfg.interactive_clients);
  std::vector<ClassLoadReport> bulk(cfg.bulk_clients);
  std::vector<std::thread> clients;
  clients.reserve(cfg.interactive_clients + cfg.bulk_clients);
  std::atomic<std::size_t> interactive_live{cfg.interactive_clients};
  const auto t0 = LoadClock::now();

  for (std::size_t c = 0; c < cfg.interactive_clients; ++c) {
    clients.emplace_back([&, c] {
      ClassLoadReport& mine = interactive[c];
      for (std::size_t r = 0; r < cfg.interactive_requests; ++r) {
        const auto& q = queries[(c * 7919 + r) % queries.size()];
        const std::string& key = shard_keys[(c + r) % shard_keys.size()];
        ++mine.attempted;
        const auto submitted_at = LoadClock::now();
        engine::Submission s = router.submit(key, q);
        if (s.accepted()) {
          ++mine.accepted;
          settle(mine, submitted_at, s.result);
        } else if (s.status == engine::SubmitStatus::kExpired) {
          ++mine.expired;
        } else {
          ++mine.rejected;
        }
        if (cfg.interactive_pace_us > 0) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(cfg.interactive_pace_us));
        }
      }
      interactive_live.fetch_sub(1, std::memory_order_relaxed);
    });
  }

  for (std::size_t c = 0; c < cfg.bulk_clients; ++c) {
    clients.emplace_back([&, c] {
      ClassLoadReport& mine = bulk[c];
      std::vector<std::pair<LoadClock::time_point, std::future<noble::serve::Fix>>>
          inflight;
      inflight.reserve(cfg.bulk_inflight_window);
      const auto flush = [&] {
        for (auto& [at, result] : inflight) settle(mine, at, result);
        inflight.clear();
      };
      for (std::size_t r = 0;
           r < cfg.bulk_requests ||
           (cfg.bulk_sustain &&
            interactive_live.load(std::memory_order_relaxed) > 0);
           ++r) {
        const auto& q = queries[((c + 1) * 104729 + r) % queries.size()];
        const std::string& key = shard_keys[(c + r) % shard_keys.size()];
        engine::SubmitOptions options;  // baseline: default class, no deadline
        if (cfg.classed) {
          options = engine::SubmitOptions::bulk();
          if (cfg.bulk_deadline_us > 0) options.expires_in_us(cfg.bulk_deadline_us);
        }
        ++mine.attempted;
        const auto submitted_at = LoadClock::now();
        engine::Submission s = router.submit(key, q, options);
        if (s.accepted()) {
          ++mine.accepted;
          inflight.emplace_back(submitted_at, std::move(s.result));
          if (inflight.size() >= cfg.bulk_inflight_window) flush();
        } else if (s.status == engine::SubmitStatus::kExpired) {
          ++mine.expired;
        } else {
          // Shed, not retried: bulk under overload is load the fleet chose
          // to drop, and the counter is the measurement.
          ++mine.rejected;
        }
      }
      flush();
    });
  }

  for (std::thread& client : clients) client.join();
  report.wall_seconds =
      std::chrono::duration<double>(LoadClock::now() - t0).count();
  for (const ClassLoadReport& r : interactive) merge_class_report(report.interactive, r);
  for (const ClassLoadReport& r : bulk) merge_class_report(report.bulk, r);
  if (report.wall_seconds > 0.0) {
    report.qps = static_cast<double>(report.interactive.completed +
                                     report.bulk.completed) /
                 report.wall_seconds;
  }
  return report;
}

void print_class_load_row(const std::string& label, const ClassLoadReport& report) {
  const LatencySummary latency = summarize_latency_us(report.latency_us);
  std::printf("  %-14s %8llu attempted  %8llu ok  %7llu shed  %7llu expired   "
              "p50 %8.1f us   p95 %8.1f us   p99 %8.1f us\n",
              label.c_str(), static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.completed),
              static_cast<unsigned long long>(report.rejected),
              static_cast<unsigned long long>(report.expired),
              latency.p50_us, latency.p95_us, latency.p99_us);
}

std::string artifact_path(const std::string& filename) {
  return env_string("NOBLE_BENCH_OUT", ".") + "/" + filename;
}

}  // namespace noble::bench
