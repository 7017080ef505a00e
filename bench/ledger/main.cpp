// noble_ledger entry point: argument parsing, the comparability guard, the
// run protocol, and the table + one-line JSON report.
//
//   noble_ledger --workload <name> --seed <n> [--seconds <s>] [--trace <file>]
//   noble_ledger --self-test
//   noble_ledger --list
//
// Exit codes: 0 ok, 1 a correctness gate failed (mismatched fix, malformed
// frame, broken future, set-up failure), 2 the run would not be comparable
// (non-Release build or a NOBLE_* variable that changes what is measured),
// 64 bad arguments.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "kernels/kernels.h"
#include "ledger.h"
#include "serve/artifact.h"

namespace ledger {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  std::string trace_path;
  bool self_test = false;
  bool list = false;
};

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--self-test") {
      args->self_test = true;
    } else if (a == "--list") {
      args->list = true;
    } else if (a == "--workload" && has_value) {
      args->workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      args->seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      args->trace_path = argv[++i];
    } else {
      return false;
    }
  }
  return args->self_test || args->list ||
         (!args->workload.empty() && args->seconds >= 1.0 && args->seconds <= 120.0);
}

/// Every NOBLE_* variable but NOBLE_KERNEL silently changes the models, the
/// engine config or the tracer the run measures; refuse them.
std::vector<std::string> foreign_noble_vars() {
  std::vector<std::string> out;
  for (char** env = environ; env != nullptr && *env != nullptr; ++env) {
    const std::string entry = *env;
    if (entry.rfind("NOBLE_", 0) != 0) continue;
    const std::string name = entry.substr(0, entry.find('='));
    if (name != "NOBLE_KERNEL") out.push_back(name);
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_metrics(const MetricMap& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ",";
    out += "\"" + name + "\":{\"value\":" + json_number(m.value) + ",\"unit\":\"" +
           json_escape(m.unit) + "\",\"n\":" + std::to_string(m.n) + "}";
  }
  return out + "}";
}

double spread(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  const double mid = median(v);
  double lo = v[0], hi = v[0];
  for (double x : v) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  return mid > 0.0 ? (hi - lo) / mid : 0.0;
}

void print_row(const char* name, const std::vector<double>& windows) {
  std::printf("  %-22s", name);
  for (double v : windows) std::printf(" %11.1f", v);
  std::printf("   median %11.1f  spread %5.1f%%\n", median(windows), 100.0 * spread(windows));
}

/// Ladder rows: each rung's median and its delta over the rung below.
void print_ladder(const MetricMap& layers) {
  const char* rungs[][2] = {
      {"kernels.dense_us.b", "kernels::dense_forward (Dense layers only)"},
      {"serve.plan_us.b", "OptimizedNetwork::predict"},
      {"serve.locate_batch_us.b", "WifiLocalizer::locate_batch"},
      {"engine.closed_fix_us.b", "Engine::submit -> future"},
      {"fleet.closed_fix_us.b", "Router::submit -> future"},
      {"gateway.closed_fix_us.b", "GatewayClient::locate (loopback)"},
      {"cluster.spill_rpc_us.b", "kSpillSubmit round trip"},
  };
  std::printf("\nladder (median us per batch; delta over the rung above it)\n");
  std::printf("  %-44s %20s %20s %20s\n", "rung", "b1", "b8", "b32");
  const char* below = nullptr;
  for (const auto& rung : rungs) {
    std::printf("  %-44s", rung[1]);
    for (std::size_t b : {1, 8, 32}) {
      const auto it = layers.find(rung[0] + std::to_string(b));
      const double v = it == layers.end() ? 0.0 : it->second.value;
      double delta = 0.0;
      // The spill rung is a peer's Router behind a socket: compare to fleet.
      const char* ref = std::strcmp(rung[0], "cluster.spill_rpc_us.b") == 0
                            ? "fleet.closed_fix_us.b"
                            : below;
      if (ref != nullptr) {
        const auto prev = layers.find(ref + std::to_string(b));
        if (prev != layers.end()) delta = v - prev->second.value;
      }
      char cell[64];
      if (ref != nullptr) {
        std::snprintf(cell, sizeof(cell), "%.1f (%+.1f)", v, delta);
      } else {
        std::snprintf(cell, sizeof(cell), "%.1f", v);
      }
      std::printf(" %20s", cell);
    }
    std::printf("\n");
    below = rung[0];
  }
  const auto imu = [&](std::size_t w) {
    const auto it = layers.find("serve.imu_update_us.w" + std::to_string(w));
    return it == layers.end() ? 0.0 : it->second.value;
  };
  std::printf("  %-44s %20.1f %20.1f %20.1f\n", "ImuLocalizer::update_sessions (width)", imu(1),
              imu(8), imu(32));
}

/// Every counter the traffic phase is measured against, read at one moment.
struct Readings {
  noble::engine::EngineStats engine;  ///< merged over every router in the stack
  std::vector<noble::Histogram> stages;
  noble::gateway::GatewayCounters wire;
  noble::cluster::NodeCounters spill;
  CpuTicks cpu;
};

Readings read_all(const Stack& stack) {
  Readings r;
  for (const noble::fleet::Router* router : stack.routers()) r.engine.merge(router->stats().total);
  r.stages = stage_histograms();
  r.wire = stack.wire_counts();
  r.spill = stack.spill_counts();
  r.cpu = read_cpu_ticks();
  return r;
}

void put(MetricMap& map, const std::string& name, double v, const char* unit, std::uint64_t n) {
  map[name] = Metric{v, unit, n};
}

/// Per-layer metrics of the traffic phase: deltas between two readings, plus
/// the gateway counters of the ladder's listener.
void add_traffic_layers(const Readings& before, const Readings& after,
                        const noble::gateway::GatewayCounters& ladder_wire,
                        const TrafficResult& traffic, MetricMap& layers) {
  const auto delta = [](noble::Histogram h, const noble::Histogram& earlier) {
    h.subtract(earlier);
    return h;
  };
  const auto mean_of = [](const noble::Histogram& h) {
    return h.count() == 0 ? 0.0 : h.sum_recorded() / static_cast<double>(h.count());
  };
  const auto p50_of = [](const noble::Histogram& h) {
    return h.count() == 0 ? 0.0 : h.percentile(50.0);
  };
  const noble::engine::EngineStats& e0 = before.engine;
  const noble::engine::EngineStats& e1 = after.engine;
  const noble::Histogram batches = delta(e1.batch_size, e0.batch_size);
  const noble::Histogram imu_batches = delta(e1.imu_batch_size, e0.imu_batch_size);
  const noble::Histogram queue_wait = delta(e1.queue_wait_us, e0.queue_wait_us);
  const noble::Histogram assembly = delta(e1.assembly_us, e0.assembly_us);
  put(layers, "engine.batch_size_mean", mean_of(batches), "rows", batches.count());
  put(layers, "engine.imu_batch_size_mean", mean_of(imu_batches), "rows", imu_batches.count());
  put(layers, "engine.queue_wait_p50_us", p50_of(queue_wait), "us", queue_wait.count());
  put(layers, "engine.assembly_p50_us", p50_of(assembly), "us", assembly.count());
  put(layers, "engine.batch_wait_us", static_cast<double>(e1.batch_wait_us), "us", 1);
  put(layers, "engine.rejected", static_cast<double>(e1.rejected - e0.rejected), "count", 1);
  put(layers, "engine.expired", static_cast<double>(e1.expired - e0.expired), "count", 1);
  put(layers, "fleet.queue_depth_max", static_cast<double>(traffic.queue_depth_max), "count",
      1);

  using Wire = noble::gateway::GatewayCounters;
  const auto wire = [&](std::uint64_t Wire::*field) {
    return static_cast<double>(after.wire.*field - before.wire.*field + ladder_wire.*field);
  };
  put(layers, "gateway.frames_received", wire(&Wire::frames_received), "count", 1);
  put(layers, "gateway.frames_sent", wire(&Wire::frames_sent), "count", 1);
  put(layers, "gateway.backpressure_rejects", wire(&Wire::backpressure_rejects), "count", 1);
  put(layers, "gateway.malformed_frames", wire(&Wire::malformed_frames), "count", 1);

  using Spill = noble::cluster::NodeCounters;
  const auto spill = [&](std::uint64_t Spill::*field) {
    return static_cast<double>(after.spill.*field - before.spill.*field);
  };
  put(layers, "cluster.spill_forwarded", spill(&Spill::spill_forwarded), "count", 1);
  put(layers, "cluster.spill_completed", spill(&Spill::spill_completed), "count", 1);
  put(layers, "cluster.spill_failed", spill(&Spill::spill_failed), "count", 1);
  const std::uint64_t attempted = traffic.outcome.attempted;
  put(layers, "cluster.spill_share",
      attempted == 0 ? 0.0 : spill(&Spill::spill_forwarded) / static_cast<double>(attempted),
      "ratio", attempted);

  const std::pair<const char*, noble::obs::Stage> stages[] = {
      {"stage.admission_p50_us", noble::obs::Stage::kAdmission},
      {"stage.queue_wait_p50_us", noble::obs::Stage::kQueueWait},
      {"stage.batch_assembly_p50_us", noble::obs::Stage::kBatchAssembly},
      {"stage.compute_p50_us", noble::obs::Stage::kCompute},
  };
  for (const auto& [name, stage] : stages) {
    std::uint64_t n = 0;
    const double v = stage_p50_between(before.stages, after.stages, stage, &n);
    put(layers, name, v, "us", n);
  }
  if (!traffic.scrape_us.empty()) {
    put(layers, "obs.traffic_scrape_us", median(traffic.scrape_us), "us",
        traffic.scrape_us.size());
  }
}

/// Share of machine CPU time stolen by other tenants between two readings.
double steal_pct(const CpuTicks& before, const CpuTicks& after) {
  const std::uint64_t total = after.total - before.total;
  return total == 0 ? 0.0 : 100.0 * static_cast<double>(after.steal - before.steal) /
                                static_cast<double>(total);
}

/// Spans kept per thread in a traced run. A bulk workload makes millions of
/// calls; the first 100k per thread (~11 MB of JSON) show the shape, and the
/// rest are counted in trace.spans_dropped (their clocks are still read, so
/// tracing costs the same throughout the run).
constexpr std::size_t kSpansPerThread = 100'000;

int run(const Args& args) {
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (try --list)\n", args.workload.c_str());
    return 64;
  }
  const std::string build_type = NOBLE_LEDGER_BUILD_TYPE;
  const std::vector<std::string> foreign = foreign_noble_vars();
  if (build_type != "Release" || !foreign.empty()) {
    std::fprintf(stderr, "noble_ledger: refusing an incomparable run:");
    if (build_type != "Release") std::fprintf(stderr, " build type is '%s';", build_type.c_str());
    for (const std::string& name : foreign) std::fprintf(stderr, " %s is set;", name.c_str());
    std::fprintf(stderr, " measure a Release build with no NOBLE_* variable but NOBLE_KERNEL\n");
    return 2;
  }
  noble::kernels::apply_env_override();
  const bool traced = !args.trace_path.empty();
  const char* kernel_env = std::getenv("NOBLE_KERNEL");
  const std::string fingerprint =
      std::string("{\"isa\":\"") + noble::kernels::isa_name(noble::kernels::active_isa()) +
      "\",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
      ",\"compiler\":\"" + json_escape(NOBLE_LEDGER_COMPILER) + "\",\"build_type\":\"" +
      json_escape(build_type) + "\",\"noble_kernel\":\"" +
      json_escape(kernel_env ? kernel_env : "") + "\"}";
  std::printf("noble_ledger  workload %s  seed %llu  %s\n  fingerprint %s\n", spec->name,
              static_cast<unsigned long long>(args.seed), traced ? "traced" : "untraced",
              fingerprint.c_str());
  std::printf("  why: %s\n", spec->why);
  std::fflush(stdout);

  const std::int64_t run_start = now_ns();
  const Pool pool = build_pool();
  Memo memo;
  {
    noble::serve::WifiLocalizer direct(*noble::serve::decode_wifi_model(pool.wifi_artifact));
    for (const auto& scan : pool.scans) memo.push_back(direct.locate(scan));
  }

  bool ok = true;
  Outcome outcome;
  MetricMap metrics, layers;

  // --- set-up: cold starts from artifact bytes ------------------------------
  // A cold start takes milliseconds in-process, so ten of them are at the
  // mercy of one slow thread spawn; keep starting for a second and take the
  // median of all of them.
  constexpr int kMinColdStarts = 10;
  constexpr double kMinSetupSeconds = 1.0;
  double setup_s = 0.0;
  int starts = 0;
  const SetupTimes setup =
      measure_setup(pool, spec->front, kMinColdStarts, kMinSetupSeconds, &setup_s, &starts);
  if (setup_s < 0.0) {
    std::printf("FAIL: the serving stack did not start\n");
    return 1;
  }
  const auto n_starts = static_cast<std::uint64_t>(starts);
  put(metrics, "setup_s", setup_s, "s", n_starts);
  put(layers, "setup.train_s", pool.train_s, "s", 1);
  put(layers, "setup.decode_s", setup.decode_s, "s", n_starts);
  put(layers, "setup.localizer_s", setup.localizer_s, "s", n_starts);
  put(layers, "setup.stack_start_s", setup.stack_s, "s", n_starts);
  put(layers, "setup.front_start_s", setup.front_s, "s", n_starts);
  put(layers, "setup.first_fix_s", setup.first_fix_s, "s", n_starts);
  put(layers, "setup.teardown_s", setup.teardown_s, "s", n_starts);
  std::printf("\nset-up: median of %d cold starts %.6f s  (decode %.6f, localizers %.6f, "
              "stack %.6f, front %.6f, first fix %.6f, teardown %.6f; training %.2f s "
              "offline, excluded)\n",
              starts, setup_s, setup.decode_s, setup.localizer_s, setup.stack_s,
              setup.front_s, setup.first_fix_s, setup.teardown_s, pool.train_s);

  SetupTimes unused;
  std::unique_ptr<Stack> stack = Stack::build(pool, spec->front, &unused);
  if (!stack) {
    std::printf("FAIL: the serving stack did not start\n");
    return 1;
  }

  // --- traced runs walk the ladder first -----------------------------------
  std::unique_ptr<SpanSink> spans;
  noble::gateway::GatewayCounters ladder_wire;
  if (traced) {
    spans = std::make_unique<SpanSink>(kSpansPerThread);
    std::uint64_t ladder_mismatches = 0;
    run_ladder(pool, *stack, memo, spans.get(), layers, &ladder_mismatches, &ladder_wire);
    outcome.mismatches += ladder_mismatches;
    print_ladder(layers);
  }

  // --- quality pass (also the first warm-up) --------------------------------
  const Quality quality = run_quality(*spec, pool, *stack, memo);
  outcome.merge(quality.outcome);
  put(metrics, "wifi_error_m", quality.wifi_error_m, "m", pool.scans.size());
  put(metrics, "track_error_m", quality.track_error_m, "m", pool.paths.size());
  std::printf("\nquality: wifi_error_m %.6f over %zu scans, track_error_m %.6f over %zu "
              "paths\n",
              quality.wifi_error_m, pool.scans.size(), quality.track_error_m,
              pool.paths.size());

  // --- warm-up + windows ----------------------------------------------------
  const double window_s = args.seconds / 5.0;
  const double warmup_s = std::min(2.0, std::max(0.5, window_s));
  const Readings before = read_all(*stack);
  WindowPlan plan;
  plan.window_ns = static_cast<std::int64_t>(window_s * 1e9);
  plan.start_ns = now_ns() + static_cast<std::int64_t>(warmup_s * 1e9);
  const TrafficContext ctx{pool, *stack, memo, args.seed, plan, spans.get(), traced};
  const TrafficResult traffic = spec->run(ctx);
  outcome.merge(traffic.outcome);
  const Readings after = read_all(*stack);
  const double traffic_steal_pct = steal_pct(before.cpu, after.cpu);

  // --- correctness: serial replay of every session --------------------------
  outcome.mismatches += replay_sessions(stack->imu(), pool, quality.streams);
  outcome.mismatches += replay_sessions(stack->imu(), pool, traffic.streams);
  const std::uint64_t malformed = after.wire.malformed_frames -
                                  before.wire.malformed_frames + ladder_wire.malformed_frames;

  // --- headline metrics ------------------------------------------------------
  const WindowStats w = window_stats(traffic.samples, plan);
  const std::uint64_t n = w.pooled_us.size();
  put(metrics, "p50_us", median(w.p50_us), "us", n);
  put(metrics, "throughput_per_s", median(w.per_s), "1/s", n);
  std::printf("\nwindows: %d x %.2f s after %.2f s warm-up\n", plan.windows, window_s,
              warmup_s);
  print_row("p50_us", w.p50_us);
  print_row("completed_per_s", w.per_s);
  const char* kind_metric[kNumKinds][2] = {{"fix_p50_us", "fix_per_s"},
                                           {"bulk_p50_us", "bulk_fixes_per_s"},
                                           {"track_p50_us", "track_updates_per_s"}};
  for (std::size_t k = 0; k < kNumKinds; ++k) {
    if (w.kind_count[k] == 0) continue;
    put(metrics, kind_metric[k][0], median(w.kind_p50_us[k]), "us", w.kind_count[k]);
    put(metrics, kind_metric[k][1], median(w.kind_per_s[k]), "1/s", w.kind_count[k]);
    print_row(kind_metric[k][0], w.kind_p50_us[k]);
    print_row(kind_metric[k][1], w.kind_per_s[k]);
  }
  const double fail_ratio =
      outcome.attempted == 0 ? 0.0
                             : static_cast<double>(outcome.failed()) /
                                   static_cast<double>(outcome.attempted);
  put(metrics, "fail_ratio", fail_ratio, "ratio", outcome.attempted);

  // --- client-side validity checks ------------------------------------------
  const double tail_q = supported_tail_percentile(n);
  put(layers, "client.samples", static_cast<double>(n), "count", n);
  put(layers, "client.p99_us", percentile(w.pooled_us, 99.0), "us", n);
  put(layers, "client.tail_pct", tail_q, "pct", n);
  put(layers, "client.tail_us", percentile(w.pooled_us, tail_q), "us", n);
  put(layers, "client.window_spread", spread(w.p50_us), "ratio", w.p50_us.size());
  const std::vector<double>& lag_us = traffic.gen_lag_us;
  put(layers, "client.gen_lag_p99_us", percentile(lag_us, 99.0), "us", lag_us.size());
  put(layers, "client.gen_lag_max_us", percentile(lag_us, 100.0), "us", lag_us.size());
  put(layers, "client.steal_pct", traffic_steal_pct, "%", 1);
  std::printf("  client: %llu in-window samples, p99 %.1f us, p%.1f %.1f us (>= 10 samples "
              "beyond), generator lag p99 %.1f us max %.1f us, cpu steal %.2f%%\n",
              static_cast<unsigned long long>(n), percentile(w.pooled_us, 99.0), tail_q,
              percentile(w.pooled_us, tail_q), percentile(lag_us, 99.0),
              percentile(lag_us, 100.0), traffic_steal_pct);

  // --- per-layer metrics from the traffic (traced runs) ----------------------
  if (traced) {
    put(layers, "traced.p50_us", metrics["p50_us"].value, "us", n);
    put(layers, "traced.throughput_per_s", metrics["throughput_per_s"].value, "1/s", n);
    add_traffic_layers(before, after, ladder_wire, traffic, layers);
    put(layers, "trace.spans_dropped", static_cast<double>(spans->total_dropped()), "count", 1);

    std::printf("\nper-layer metrics\n");
    for (const auto& [name, m] : layers) {
      std::printf("  %-32s %16.4f %-8s (n=%llu)\n", name.c_str(), m.value, m.unit.c_str(),
                  static_cast<unsigned long long>(m.n));
    }
    if (!spans->write_chrome_json(args.trace_path, run_start)) {
      std::printf("FAIL: cannot write the trace to %s\n", args.trace_path.c_str());
      ok = false;
    } else {
      std::printf("  spans written to %s\n", args.trace_path.c_str());
    }
  }

  std::printf("\noutcome: attempted %llu, refused %llu, expired %llu, transport %llu, "
              "mismatches %llu, malformed frames %llu\n",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.refused),
              static_cast<unsigned long long>(outcome.expired),
              static_cast<unsigned long long>(outcome.transport),
              static_cast<unsigned long long>(outcome.mismatches),
              static_cast<unsigned long long>(malformed));
  ok = ok && outcome.mismatches == 0 && malformed == 0 && outcome.transport == 0 && n > 0;
  std::printf("%s  (%.1f s wall)\n", ok ? "OK" : "FAIL",
              static_cast<double>(now_ns() - run_start) / 1e9);
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"fingerprint\":%s,\"metrics\":%s,"
              "\"layers\":%s,\"attempted\":%llu,\"failed\":%llu,\"ok\":%s}\n",
              spec->name, static_cast<unsigned long long>(args.seed), fingerprint.c_str(),
              json_metrics(metrics).c_str(), json_metrics(layers).c_str(),
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed()), ok ? "true" : "false");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) {
  ledger::Args args;
  if (!ledger::parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> [--seconds <s>] [--trace <file>]\n"
                 "       %s --self-test | --list\n",
                 argv[0], argv[0]);
    return 64;
  }
  if (args.self_test) return ledger::run_self_test();
  if (args.list) {
    for (const ledger::WorkloadSpec& spec : ledger::workloads()) {
      std::printf("%-18s %s\n", spec.name, spec.why);
    }
    return 0;
  }
  return ledger::run(args);
}
