// Gateway saturation: open-loop (Poisson-arrival) latency-vs-offered-load
// sweep over the serving stack, in-process and over the wire.
//
// Closed-loop clients self-throttle — they can never offer more load than
// the target absorbs, so they cannot locate the saturation knee. This bench fires requests on an exponential inter-arrival
// schedule at a configured offered QPS, doubling the rate per step until
// achieved throughput falls visibly behind offered (the knee), and prints
// one row per step: achieved QPS and per-class p50/p99 for interactive
// scans, deadline-carrying bulk scans, and streamed IMU session updates.
//
// Modes:
//  - default: self-hosted. Trains once, stands up a fleet::Router, sweeps
//    the in-process target ("router") and a loopback gateway socket
//    ("wire") back to back — the wire's added cost is the difference
//    between the two tables. Self-gates: zero malformed frames, a
//    wire-vs-direct bit-identity spot check, a finite interactive p99
//    below the knee, a metrics/trace coherence probe (registry totals ==
//    harness-observed totals, stage means telescope to the e2e mean), and
//    a tracing-overhead bound (in-process interactive p50 with stage
//    histograms on + 1% sampling within 5% of tracing disabled); exits
//    non-zero on violation (the CI smoke contract). Mid-sweep it scrapes
//    the live gateway in both exposition formats (gateway_metrics.prom /
//    .bin under NOBLE_BENCH_OUT), and every CSV row carries the server-side
//    per-stage p50s for that step (decode/admission/queue/assembly/
//    compute/respond) from before/after deltas of the cumulative stage
//    histograms.
//  - --serve: trains, starts the gateway, prints the port and blocks until
//    Enter/EOF — terminal 1 of the two-terminal quickstart.
//  - NOBLE_GATEWAY_ADDR=host:port — drives a remote gateway (terminal 2).
//    Training is deterministic from the seed, so both processes hold the
//    same substrate and query pool.
//
// Knobs: NOBLE_LOAD_QPS (first offered step), NOBLE_LOAD_SECONDS (window
// per step), NOBLE_LOAD_STEPS (max doublings), NOBLE_GATEWAY_PORT /
// NOBLE_GATEWAY_THREADS (serve side), the shared NOBLE_ENGINE_* set, and
// NOBLE_SCALE / NOBLE_EPOCHS experiment sizing. Writes the sweep to
// gateway_load.csv under NOBLE_BENCH_OUT.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/stats.h"
#include "core/experiment.h"
#include "core/noble_imu.h"
#include "core/noble_wifi.h"
#include "fleet/router.h"
#include "gateway/client.h"
#include "gateway/gateway.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/imu_localizer.h"
#include "serve/wifi_localizer.h"
#include "support/bench_util.h"

namespace {

struct Workload {
  std::vector<noble::serve::RssiVector> queries;
  std::vector<noble::serve::ImuSegment> segments;
  std::vector<noble::geo::Point2> session_starts;
  noble::serve::WifiLocalizer wifi;
  noble::serve::ImuLocalizer imu;
};

/// Deterministic training for every mode: a --serve process and a remote
/// driver build the same models and query pool from the same seeds.
Workload build_workload() {
  using namespace noble;
  core::WifiExperimentConfig wifi_config;
  wifi_config.total_samples = 3000;
  wifi_config.seed = 12;
  core::WifiExperiment wifi_exp = core::make_uji_experiment(wifi_config);
  core::NobleWifiConfig wifi_model_config;
  wifi_model_config.quantize.tau = 3.0;
  wifi_model_config.quantize.coarse_l = 15.0;
  wifi_model_config.epochs = static_cast<std::size_t>(env_int("NOBLE_EPOCHS", 10));
  core::NobleWifiModel wifi_model(wifi_model_config);
  wifi_model.fit(wifi_exp.split.train, &wifi_exp.split.val);

  core::ImuExperimentConfig imu_config;
  imu_config.num_paths = 400;
  imu_config.total_walk_time_s = 1000.0;
  imu_config.readings_per_segment = 8;
  imu_config.imu.ref_interval_s = 15.0;
  imu_config.seed = 304;
  core::ImuExperiment imu_exp = core::make_imu_experiment(imu_config);
  core::NobleImuConfig imu_model_config;
  imu_model_config.quantize.tau = 2.0;
  imu_model_config.epochs = 6;
  imu_model_config.projection_dim = 6;
  core::NobleImuTracker tracker(imu_model_config);
  tracker.fit(imu_exp.split.train);

  Workload load{{},
                {},
                {},
                serve::WifiLocalizer::from_model(wifi_model),
                serve::ImuLocalizer::from_model(tracker)};
  for (const auto& sample : wifi_exp.split.test.samples)
    load.queries.push_back(sample.rssi);
  const std::size_t dim = tracker.segment_dim();
  for (const auto& path : imu_exp.split.test.paths) {
    load.session_starts.push_back(path.start);
    for (std::size_t s = 0; s < path.num_segments; ++s) {
      load.segments.emplace_back(
          path.features.begin() + static_cast<std::ptrdiff_t>(s * dim),
          path.features.begin() + static_cast<std::ptrdiff_t>((s + 1) * dim));
    }
  }
  return load;
}

void add_serving_shards(noble::fleet::Router& router, const Workload& load,
                        const noble::engine::EngineConfig& cfg) {
  noble::fleet::ShardConfig shard;
  shard.key = "bldg-A";
  shard.engine = cfg;
  router.add_shard(shard, load.wifi, load.imu);
}

// --- per-stage latency from the tracer's global histograms -------------------
//
// The stage histograms are cumulative; a sweep step's own distribution is
// the before/after delta (Histogram::subtract). Self-hosted runs read the
// local registry (both sweep targets feed the same process); a remote
// driver scrapes the server's binary snapshot instead — full bins cross the
// wire, so the delta works the same way.

struct StageSnapshot {
  std::vector<noble::Histogram> stages;  ///< obs::kNumStages entries
  noble::Histogram e2e = noble::Histogram::latency_us();

  StageSnapshot() {
    for (std::size_t s = 0; s < noble::obs::kNumStages; ++s) {
      stages.push_back(noble::Histogram::latency_us());
    }
  }
};

StageSnapshot read_stage_snapshot(const noble::obs::MetricsSnapshot& snap) {
  using noble::obs::Stage;
  StageSnapshot out;
  for (std::size_t s = 0; s < noble::obs::kNumStages; ++s) {
    const noble::obs::MetricSample* sample = snap.find(
        "noble_stage_latency_us",
        {{"stage", noble::obs::stage_name(static_cast<Stage>(s))}});
    if (sample != nullptr && sample->hist.has_value() &&
        sample->hist->same_layout(out.stages[s])) {
      out.stages[s] = *sample->hist;
    }
  }
  const noble::obs::MetricSample* e2e = snap.find("noble_trace_e2e_us");
  if (e2e != nullptr && e2e->hist.has_value() && e2e->hist->same_layout(out.e2e)) {
    out.e2e = *e2e->hist;
  }
  return out;
}

StageSnapshot local_stage_snapshot() {
  return read_stage_snapshot(noble::obs::Registry::global().collect());
}

/// after - before, per stage (both snapshots of the same growing stream).
StageSnapshot stage_delta(StageSnapshot after, const StageSnapshot& before) {
  for (std::size_t s = 0; s < after.stages.size(); ++s) {
    after.stages[s].subtract(before.stages[s]);
  }
  after.e2e.subtract(before.e2e);
  return after;
}

/// One sweep step: the open-loop row plus the stage-latency delta its
/// traffic produced.
struct SweepRow {
  noble::bench::OpenLoopReport report;
  StageSnapshot stages;
};

void print_sweep_header(const char* target) {
  std::printf("%s target: offered vs achieved (per-class client-side latency)\n",
              target);
  std::printf("  %8s %9s   %9s %9s | %9s %9s | %9s %9s   %7s %7s   %8s\n",
              "offered", "achieved", "int p50", "int p99", "bulk p50", "bulk p99",
              "sess p50", "sess p99", "shed", "expired", "lag us");
}

/// Doubles offered QPS until achieved falls behind (the knee) or the step
/// budget runs out; returns every row for gating + the CSV artifact.
/// `scrape` reads the cumulative stage histograms (local registry or remote
/// snapshot) around each step; `after_step`, when set, runs between steps —
/// the CI smoke uses it to scrape the gateway mid-sweep.
std::vector<SweepRow> sweep(noble::bench::LoadTarget& target, const Workload& load,
                            const noble::bench::OpenLoopConfig& base,
                            std::size_t max_steps,
                            const std::function<StageSnapshot()>& scrape,
                            const std::function<void(std::size_t)>& after_step = {}) {
  std::vector<SweepRow> rows;
  const std::vector<std::string> keys = {"bldg-A"};
  noble::bench::OpenLoopConfig cfg = base;
  for (std::size_t step = 0; step < max_steps; ++step) {
    const StageSnapshot before = scrape();
    SweepRow row;
    row.report = noble::bench::run_open_loop(target, keys, load.queries,
                                             load.segments, load.session_starts, cfg);
    row.stages = stage_delta(scrape(), before);
    noble::bench::print_open_loop_row(row.report);
    rows.push_back(std::move(row));
    if (after_step) after_step(step);
    // Past the knee: achieved visibly behind offered, or the generator's
    // outstanding guard started shedding (the queue only grows from here).
    // One saturated row is the measurement; more would just burn wall clock.
    const noble::bench::OpenLoopReport& report = rows.back().report;
    if (report.achieved_qps < 0.75 * report.offered_qps || report.dropped > 0) break;
    cfg.offered_qps *= 2.0;
  }
  return rows;
}

bool spot_check_bit_identity(const Workload& load, std::uint16_t port) {
  std::optional<noble::gateway::GatewayClient> client =
      noble::gateway::GatewayClient::connect("127.0.0.1", port);
  if (!client.has_value()) return false;
  const std::size_t n = std::min<std::size_t>(32, load.queries.size());
  for (std::size_t i = 0; i < n; ++i) {
    const noble::gateway::WireResult wired = client->locate("bldg-A", load.queries[i]);
    if (!wired.ok() || !(wired.fix == load.wifi.locate(load.queries[i]))) return false;
  }
  return n > 0;
}

void write_csv(const std::string& path, const char* target,
               const std::vector<SweepRow>& rows, bool append) {
  std::FILE* out = std::fopen(path.c_str(), append ? "a" : "w");
  if (out == nullptr) return;
  if (!append) {
    std::fprintf(out,
                 "target,offered_qps,achieved_qps,interactive_p50_us,"
                 "interactive_p99_us,bulk_p50_us,bulk_p99_us,session_p50_us,"
                 "session_p99_us,shed,expired,interactive_goodput,bulk_goodput,"
                 "session_goodput,decode_p50_us,admission_p50_us,"
                 "queue_p50_us,assembly_p50_us,compute_p50_us,respond_p50_us\n");
  }
  for (const auto& sweep_row : rows) {
    const noble::bench::OpenLoopReport& row = sweep_row.report;
    const auto interactive = noble::summarize_latency_us(row.interactive.latency_us);
    const auto bulk = noble::summarize_latency_us(row.bulk.latency_us);
    const auto session = noble::summarize_latency_us(row.session.latency_us);
    std::fprintf(out, "%s,%.0f,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f,%llu,%llu",
                 target, row.offered_qps, row.achieved_qps, interactive.p50_us,
                 interactive.p99_us, bulk.p50_us, bulk.p99_us, session.p50_us,
                 session.p99_us,
                 static_cast<unsigned long long>(
                     row.interactive.rejected + row.bulk.rejected +
                     row.session.rejected + row.dropped),
                 static_cast<unsigned long long>(row.interactive.expired +
                                                 row.bulk.expired +
                                                 row.session.expired));
    // Per-class goodput: the fraction of attempted requests that completed
    // with a fix before any deadline — shed and expired both count against
    // it. 1.0 for a class with no traffic (nothing offered, nothing lost).
    const auto goodput = [](const noble::bench::ClassLoadReport& cls) {
      return cls.attempted == 0 ? 1.0
                                : static_cast<double>(cls.completed) /
                                      static_cast<double>(cls.attempted);
    };
    std::fprintf(out, ",%.4f,%.4f,%.4f", goodput(row.interactive),
                 goodput(row.bulk), goodput(row.session));
    // Server-side stage medians for this step's traffic (0.0 when the stage
    // never ran — in-process rows have no decode leg, for example).
    for (const noble::Histogram& stage : sweep_row.stages.stages) {
      std::fprintf(out, ",%.1f", stage.percentile(50.0));
    }
    std::fprintf(out, "\n");
  }
  std::fclose(out);
}

/// Gate: below the knee (the first row), interactive traffic completed and
/// its p99 is a finite positive number — the latency table means something.
bool finite_interactive_p99_below_knee(const std::vector<SweepRow>& rows) {
  if (rows.empty()) return false;
  const auto p =
      noble::summarize_latency_us(rows.front().report.interactive.latency_us);
  return rows.front().report.interactive.completed > 0 && p.p99_us > 0.0 &&
         p.p99_us < 1e9;
}

/// Gate: the registry's request totals agree with what the harness observed,
/// and the stage clocks telescope. Drives exactly `kProbes` locates at 100%
/// sampling through a quiet gateway, deltas the scrape around them, and
/// checks (a) noble_fleet_submitted grew by exactly kProbes, (b) every probe
/// produced an e2e trace sample, (c) the per-stage means sum to the e2e mean
/// (the marks telescope, so this is near-exact), and (d) the per-stage p50
/// sum lands within the e2e p50's neighborhood (medians don't telescope
/// exactly; a loose band still catches a broken stage clock).
bool coherence_gate(std::uint16_t port, const Workload& load) {
  using noble::obs::Tracer;
  constexpr std::uint64_t kProbes = 32;
  const noble::obs::TraceConfig saved = Tracer::global().config();
  noble::obs::TraceConfig cfg = saved;
  cfg.enabled = true;
  cfg.sample_rate = 1.0;
  Tracer::global().configure(cfg);

  bool ok = false;
  do {
    std::optional<noble::gateway::GatewayClient> client =
        noble::gateway::GatewayClient::connect("127.0.0.1", port);
    if (!client.has_value()) break;
    const std::optional<std::string> before_bytes = client->stats_snapshot_bytes();
    if (!before_bytes.has_value()) break;
    const std::optional<noble::obs::MetricsSnapshot> before =
        noble::obs::decode_snapshot(*before_bytes);
    if (!before.has_value()) break;

    bool all_ok = true;
    for (std::uint64_t i = 0; i < kProbes; ++i) {
      all_ok = all_ok &&
               client->locate("bldg-A", load.queries[i % load.queries.size()]).ok();
    }
    if (!all_ok) break;

    const std::optional<std::string> after_bytes = client->stats_snapshot_bytes();
    if (!after_bytes.has_value()) break;
    const std::optional<noble::obs::MetricsSnapshot> after =
        noble::obs::decode_snapshot(*after_bytes);
    if (!after.has_value()) break;

    const noble::obs::MetricSample* sub_before = before->find("noble_fleet_submitted");
    const noble::obs::MetricSample* sub_after = after->find("noble_fleet_submitted");
    if (sub_before == nullptr || sub_after == nullptr) break;
    const std::uint64_t submitted_delta =
        sub_after->counter_value - sub_before->counter_value;
    if (submitted_delta != kProbes) {
      std::printf("coherence: noble_fleet_submitted grew %llu, expected %llu\n",
                  static_cast<unsigned long long>(submitted_delta),
                  static_cast<unsigned long long>(kProbes));
      break;
    }

    const StageSnapshot delta =
        stage_delta(read_stage_snapshot(*after), read_stage_snapshot(*before));
    if (delta.e2e.count() != kProbes) {
      std::printf("coherence: %llu e2e trace samples, expected %llu\n",
                  static_cast<unsigned long long>(delta.e2e.count()),
                  static_cast<unsigned long long>(kProbes));
      break;
    }
    double stage_mean_sum = 0.0;
    double stage_p50_sum = 0.0;
    for (const noble::Histogram& stage : delta.stages) {
      stage_mean_sum += stage.count() > 0 ? stage.mean() : 0.0;
      stage_p50_sum += stage.percentile(50.0);
    }
    const double e2e_mean = delta.e2e.mean();
    const double e2e_p50 = delta.e2e.percentile(50.0);
    const bool means_telescope =
        std::abs(stage_mean_sum - e2e_mean) <= 0.01 * e2e_mean + 1.0;
    const bool p50_in_band = stage_p50_sum >= 0.25 * e2e_p50 &&
                             stage_p50_sum <= 2.0 * e2e_p50 + 10.0;
    if (!means_telescope || !p50_in_band) {
      std::printf("coherence: stage means sum %.1f us vs e2e mean %.1f us, "
                  "stage p50 sum %.1f us vs e2e p50 %.1f us\n",
                  stage_mean_sum, e2e_mean, stage_p50_sum, e2e_p50);
      break;
    }
    ok = true;
  } while (false);

  Tracer::global().configure(saved);
  return ok;
}

/// Gate: tracing is cheap enough to leave on. Runs a strict closed loop of
/// in-process interactive locates — tracing disabled vs enabled at the
/// default 1% ring sampling (stage histograms always on) — alternating
/// passes to decorrelate machine drift, and compares the best p50 of each
/// mode. The bound is 5% plus a small absolute floor (at smoke scale a p50
/// is a few hundred us; a fixed 25 us keeps scheduler noise from failing an
/// honest run).
bool overhead_gate(noble::fleet::Router& router, const Workload& load,
                   double* off_p50, double* on_p50) {
  using noble::obs::Tracer;
  const noble::obs::TraceConfig saved = Tracer::global().config();
  noble::bench::RouterTarget target(router);
  const std::size_t per_pass = 1000;
  constexpr int kPassesPerMode = 3;

  auto run_pass = [&]() {
    std::vector<double> lat_us;
    lat_us.reserve(per_pass);
    for (std::size_t i = 0; i < per_pass; ++i) {
      noble::engine::SubmitOptions options;
      if (Tracer::global().enabled() &&
          (options.trace = Tracer::global().start(i)) != nullptr) {
        options.trace->stamp(noble::obs::Mark::kSubmit);
      }
      const auto t0 = std::chrono::steady_clock::now();
      noble::engine::Submission s = target.submit(
          "bldg-A", load.queries[i % load.queries.size()], options);
      if (!s.accepted()) return -1.0;
      s.result.get();
      lat_us.push_back(std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
    }
    return noble::percentile(std::move(lat_us), 50.0);
  };

  double best[2] = {1e18, 1e18};  // [0] = tracing off, [1] = on at 1%
  bool pass_failed = false;
  for (int pass = 0; pass < 2 * kPassesPerMode; ++pass) {
    const int mode = pass % 2;
    noble::obs::TraceConfig cfg = saved;
    cfg.enabled = mode == 1;
    cfg.sample_rate = 0.01;
    Tracer::global().configure(cfg);
    const double p50 = run_pass();
    if (p50 < 0.0) {
      pass_failed = true;
      break;
    }
    best[mode] = std::min(best[mode], p50);
  }
  Tracer::global().configure(saved);
  *off_p50 = best[0];
  *on_p50 = best[1];
  return !pass_failed && best[1] <= best[0] * 1.05 + 25.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace noble;

  const bool serve_mode = argc > 1 && std::strcmp(argv[1], "--serve") == 0;
  bench::print_banner("gateway_load",
                      "noble::gateway open-loop saturation (latency vs offered QPS)");

  engine::EngineConfig engine_defaults;
  engine_defaults.workers = 0;  // auto: min(hardware, 8)
  engine_defaults.max_wait_us = 100;
  engine_defaults.queue_cap = 4096;
  const engine::EngineConfig engine_cfg = bench::engine_config_from_env(engine_defaults);
  const gateway::GatewayConfig gw_cfg = bench::gateway_config_from_env();
  const bench::OpenLoopConfig load_cfg = bench::open_loop_config_from_env();
  const auto max_steps =
      static_cast<std::size_t>(env_int("NOBLE_LOAD_STEPS", 6));
  std::printf("engine: %s\n", bench::describe_engine_config(engine_cfg).c_str());
  std::printf("gateway: %s\n", bench::describe_gateway_config(gw_cfg).c_str());
  std::printf("load: %s, <= %zu doublings\n\n",
              bench::describe_open_loop_config(load_cfg).c_str(), max_steps);

  std::printf("training (deterministic: every mode rebuilds the same models)...\n");
  const Workload load = build_workload();
  std::printf("workload: %zu scans, %zu imu segments, %zu session anchors\n\n",
              load.queries.size(), load.segments.size(), load.session_starts.size());
  if (load.queries.empty()) {
    std::printf("no test queries at this scale; nothing to do\n");
    return 1;
  }

  // --serve: stand up the gateway and hold it open for a remote driver.
  if (serve_mode) {
    fleet::Router router;
    add_serving_shards(router, load, engine_cfg);
    gateway::Listener listener(router, gw_cfg);
    if (!listener.start()) {
      std::printf("FAIL: cannot bind %s:%u\n", gw_cfg.bind_address.c_str(), gw_cfg.port);
      return 1;
    }
    std::printf("serving on %s:%u — drive it with:\n", gw_cfg.bind_address.c_str(),
                listener.port());
    std::printf("  NOBLE_GATEWAY_ADDR=127.0.0.1:%u ./bench_gateway_load\n",
                listener.port());
    std::printf("press Enter (or close stdin) to stop.\n");
    (void)std::getchar();
    listener.stop();
    return 0;
  }

  // Remote-drive: NOBLE_GATEWAY_ADDR=host:port, no local server.
  const std::string addr = env_string("NOBLE_GATEWAY_ADDR", "");
  if (!addr.empty()) {
    const std::size_t colon = addr.rfind(':');
    if (colon == std::string::npos) {
      std::printf("FAIL: NOBLE_GATEWAY_ADDR must be host:port, got '%s'\n",
                  addr.c_str());
      return 1;
    }
    const std::string host = addr.substr(0, colon);
    const auto port = static_cast<std::uint16_t>(
        std::strtoul(addr.c_str() + colon + 1, nullptr, 10));
    std::unique_ptr<bench::SocketTarget> target =
        bench::SocketTarget::connect(host, port, /*connections=*/4);
    if (target == nullptr) {
      std::printf("FAIL: cannot connect to %s\n", addr.c_str());
      return 1;
    }
    // Stage columns come from the *server's* histograms: scrape the binary
    // snapshot (full bins) around each step and delta it.
    std::optional<gateway::GatewayClient> scraper =
        gateway::GatewayClient::connect(host, port);
    const auto remote_scrape = [&scraper]() {
      StageSnapshot out;
      if (!scraper.has_value()) return out;
      const std::optional<std::string> bytes = scraper->stats_snapshot_bytes();
      if (!bytes.has_value()) return out;
      const std::optional<obs::MetricsSnapshot> snap = obs::decode_snapshot(*bytes);
      return snap.has_value() ? read_stage_snapshot(*snap) : out;
    };
    print_sweep_header("wire (remote)");
    const auto rows = sweep(*target, load, load_cfg, max_steps, remote_scrape);
    write_csv(bench::artifact_path("gateway_load.csv"), "wire-remote", rows,
              /*append=*/false);
    return rows.empty() ? 1 : 0;
  }

  // Self-hosted: one router, swept twice — in-process, then over loopback.
  fleet::Router router;
  add_serving_shards(router, load, engine_cfg);

  print_sweep_header("router (in-process)");
  bench::RouterTarget router_target(router);
  const auto router_rows =
      sweep(router_target, load, load_cfg, max_steps, local_stage_snapshot);
  std::printf("\n");

  gateway::Listener listener(router, gw_cfg);
  if (!listener.start()) {
    std::printf("FAIL: cannot bind %s:%u\n", gw_cfg.bind_address.c_str(), gw_cfg.port);
    return 1;
  }
  print_sweep_header("wire (loopback)");
  std::vector<SweepRow> wire_rows;
  {
    std::unique_ptr<bench::SocketTarget> target =
        bench::SocketTarget::connect("127.0.0.1", listener.port(), /*connections=*/4);
    if (target == nullptr) {
      std::printf("FAIL: cannot connect to the loopback gateway\n");
      return 1;
    }
    // Mid-sweep (after the first step, traffic still to come): scrape the
    // live gateway in both exposition formats into the artifact dir — the
    // CI smoke uploads these alongside the CSV.
    const auto mid_sweep_scrape = [&listener](std::size_t step) {
      if (step != 0) return;
      std::optional<gateway::GatewayClient> scraper =
          gateway::GatewayClient::connect("127.0.0.1", listener.port());
      if (!scraper.has_value()) return;
      const std::optional<std::string> text = scraper->stats_text();
      const std::optional<std::string> bytes = scraper->stats_snapshot_bytes();
      if (!text.has_value() || !bytes.has_value()) return;
      const std::string prom = bench::artifact_path("gateway_metrics.prom");
      const std::string bin = bench::artifact_path("gateway_metrics.bin");
      if (std::FILE* out = std::fopen(prom.c_str(), "w")) {
        std::fwrite(text->data(), 1, text->size(), out);
        std::fclose(out);
      }
      if (std::FILE* out = std::fopen(bin.c_str(), "wb")) {
        std::fwrite(bytes->data(), 1, bytes->size(), out);
        std::fclose(out);
      }
      std::printf("  (scraped mid-sweep: %s, %s)\n", prom.c_str(), bin.c_str());
    };
    wire_rows =
        sweep(*target, load, load_cfg, max_steps, local_stage_snapshot,
              mid_sweep_scrape);
  }

  const std::string csv = bench::artifact_path("gateway_load.csv");
  write_csv(csv, "router", router_rows, /*append=*/false);
  write_csv(csv, "wire", wire_rows, /*append=*/true);
  std::printf("\nwrote %s\n", csv.c_str());

  // Overload summary (printed, not gated: at smoke scale the saturated row
  // is a handful of completions per class). Overload shows either as
  // achieved falling behind offered or as sheds/expiries appearing while
  // the outstanding guard caps queue growth.
  const auto overloaded = [](const bench::OpenLoopReport& row) {
    return row.achieved_qps < 0.9 * row.offered_qps || row.dropped > 0 ||
           row.interactive.rejected + row.bulk.rejected + row.session.rejected > 0 ||
           row.interactive.expired + row.bulk.expired + row.session.expired > 0;
  };
  if (!wire_rows.empty() && overloaded(wire_rows.back().report)) {
    const bench::OpenLoopReport& last = wire_rows.back().report;
    const auto interactive = summarize_latency_us(last.interactive.latency_us);
    const auto bulk = summarize_latency_us(last.bulk.latency_us);
    std::printf("overload (%.0f qps offered over the wire): interactive p99 %.1f us "
                "vs bulk p99 %.1f us%s\n",
                last.offered_qps, interactive.p99_us, bulk.p99_us,
                interactive.p99_us < bulk.p99_us
                    ? " — the class lanes hold under the flood"
                    : "");
  } else {
    std::printf("note: the sweep never left the linear regime; raise "
                "NOBLE_LOAD_STEPS or NOBLE_LOAD_QPS to reach the knee\n");
  }

  // Self-gates — the CI smoke contract.
  const bool identity = spot_check_bit_identity(load, listener.port());
  const bool coherent = coherence_gate(listener.port(), load);
  const gateway::GatewayCounters counters = listener.counters();
  listener.stop();
  const bool no_malformed = counters.malformed_frames == 0;
  const bool finite_p99 = finite_interactive_p99_below_knee(wire_rows) &&
                          finite_interactive_p99_below_knee(router_rows);
  double off_p50 = 0.0, on_p50 = 0.0;
  const bool overhead_ok = overhead_gate(router, load, &off_p50, &on_p50);
  std::printf("\ngates: malformed frames %s (%llu), wire-vs-direct spot check %s, "
              "below-knee interactive p99 %s, metrics/trace coherence %s, "
              "tracing overhead %s (p50 %.1f us off -> %.1f us at 1%% sampling)\n",
              no_malformed ? "ok" : "FAIL",
              static_cast<unsigned long long>(counters.malformed_frames),
              identity ? "ok" : "FAIL", finite_p99 ? "ok" : "FAIL",
              coherent ? "ok" : "FAIL", overhead_ok ? "ok" : "FAIL", off_p50,
              on_p50);
  if (!(no_malformed && identity && finite_p99 && coherent && overhead_ok)) {
    std::printf("FAIL: gateway load gates violated\n");
    return 1;
  }
  std::printf("OK\n");
  return 0;
}
