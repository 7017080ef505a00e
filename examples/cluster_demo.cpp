// Cluster tour — one fleet, two nodes, one coordinator (all in-process):
//  1. train two NObLe Wi-Fi models on the same campus (v1 to deploy, v2 as
//     the retrained artifact a rollout will ship),
//  2. stand up a noble::cluster::Coordinator and two NodeAgents, each
//     wrapping its own fleet::Router serving "bldg-A" on v1 — node A with a
//     one-slot bulk lane, node B with a deep queue,
//  3. flood node A with bulk scans: the overflow spills cross-node to B,
//     and every spilled fix must be bit-identical to direct locate(),
//  4. drop the v2 artifact into the watched model directory and drive one
//     watcher pass: the coordinator canaries one node, verifies probe
//     bit-identity, then commits the fleet — both routers must converge
//     onto v2's digest,
//  5. stop node B: its heartbeats cease, the coordinator marks it dead,
//     and node A's spill stops targeting it.
//
// Exits non-zero on any gate miss, so the smoke tier doubles as an
// end-to-end cluster check.
//
// Run: ./example_cluster_demo
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/coordinator.h"
#include "cluster/node.h"
#include "core/experiment.h"
#include "core/noble_wifi.h"
#include "fleet/router.h"
#include "serve/artifact.h"
#include "serve/wifi_localizer.h"

namespace {

template <typename Pred>
bool wait_until(Pred pred, int timeout_ms = 10'000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return pred();
}

bool sees_alive_peer(const noble::cluster::NodeAgent& agent, const std::string& name) {
  for (const auto& peer : agent.peers()) {
    if (peer.name == name && peer.alive && !peer.shards.empty()) return true;
  }
  return false;
}

}  // namespace

int main() {
  using namespace noble;

  std::printf("noble::cluster tour: heartbeats -> spill -> staged rollout\n\n");

  // 1. Train v1 and v2 (scaled by NOBLE_SCALE inside the experiment builder).
  core::WifiExperimentConfig config;
  config.total_samples = 1200;
  config.seed = 917;
  core::WifiExperiment experiment = core::make_uji_experiment(config);
  auto model_config = [](std::uint64_t seed) {
    core::NobleWifiConfig cfg;
    cfg.quantize.tau = 6.0;
    cfg.quantize.coarse_l = 24.0;
    cfg.epochs = 4;
    cfg.hidden_units = 24;
    cfg.seed = seed;
    return cfg;
  };
  core::NobleWifiModel model_v1(model_config(31));
  model_v1.fit(experiment.split.train);
  core::NobleWifiModel model_v2(model_config(32));
  model_v2.fit(experiment.split.train);
  const serve::WifiLocalizer wifi_v1 = serve::WifiLocalizer::from_model(model_v1);
  const serve::WifiLocalizer wifi_v2 = serve::WifiLocalizer::from_model(model_v2);
  std::vector<serve::RssiVector> queries;
  for (const auto& sample : experiment.split.test.samples)
    queries.push_back(sample.rssi);
  if (queries.size() < 4) {
    std::printf("no test queries at this scale; nothing to do\n");
    return 1;
  }
  std::printf("trained: v1 digest %016llx, v2 digest %016llx\n\n",
              static_cast<unsigned long long>(wifi_v1.artifact_digest()),
              static_cast<unsigned long long>(wifi_v2.artifact_digest()));

  // 2. Coordinator + two nodes. poll_ms = 0: the tour drives the watcher
  // pass itself so each phase is deterministic.
  const std::string model_dir =
      (std::filesystem::temp_directory_path() / "noble_cluster_demo").string();
  std::filesystem::create_directories(model_dir);
  cluster::CoordinatorConfig coord_cfg;
  coord_cfg.dead_after_ms = 400;
  coord_cfg.poll_ms = 0;
  coord_cfg.model_dir = model_dir;
  cluster::Coordinator coordinator(coord_cfg);
  std::vector<serve::RssiVector> probes(queries.begin(), queries.begin() + 4);
  coordinator.set_probe_queries("bldg-A", probes);
  if (!coordinator.start()) {
    std::printf("FAIL: cannot start the coordinator\n");
    return 1;
  }

  auto make_node = [&](const char* name, std::size_t queue_cap,
                       std::size_t bulk_cap, fleet::Router& router) {
    fleet::ShardConfig shard;
    shard.key = "bldg-A";
    shard.engine.workers = 1;
    shard.engine.max_batch = 8;
    shard.engine.queue_cap = queue_cap;
    shard.engine.bulk_cap = bulk_cap;
    router.add_shard(shard, wifi_v1);
    cluster::NodeConfig cfg;
    cfg.name = name;
    cfg.coordinator_port = coordinator.port();
    cfg.heartbeat_ms = 50;
    return std::make_unique<cluster::NodeAgent>(router, cfg);
  };
  fleet::Router router_a, router_b;
  auto node_a = make_node("node-a", /*queue_cap=*/4, /*bulk_cap=*/1, router_a);
  auto node_b = make_node("node-b", /*queue_cap=*/512, /*bulk_cap=*/0, router_b);
  if (!node_a->start() || !node_b->start()) {
    std::printf("FAIL: cannot start the node agents\n");
    return 1;
  }
  if (!wait_until([&] {
        return sees_alive_peer(*node_a, "node-b") && sees_alive_peer(*node_b, "node-a");
      })) {
    std::printf("FAIL: the nodes never saw each other alive\n");
    return 1;
  }
  std::printf("fleet up: 2 nodes, heartbeats at 50 ms, both serving v1\n\n");

  // 3. Bulk flood through node A: the one-slot bulk lane overflows and the
  // excess spills to node B. Bit-identity is the gate.
  engine::SubmitOptions bulk;
  bulk.request_class = engine::RequestClass::kBulk;
  std::vector<std::pair<std::size_t, std::future<serve::Fix>>> accepted;
  for (std::size_t round = 0; round < 8; ++round) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      engine::Submission sub = node_a->submit("bldg-A", queries[i], bulk);
      if (sub.accepted()) accepted.emplace_back(i, std::move(sub.result));
    }
  }
  std::size_t identical = 0, mismatched = 0, shed = 0;
  for (auto& [qi, result] : accepted) {
    try {
      if (result.get() == wifi_v1.locate(queries[qi])) {
        ++identical;
      } else {
        ++mismatched;
      }
    } catch (const std::exception&) {
      ++shed;  // a clean cross-node verdict, not a wrong fix
    }
  }
  const cluster::NodeCounters spill = node_a->counters();
  std::printf("spill: %llu forwarded to node-b, %zu fixes identical, %zu mismatched, "
              "%zu shed\n\n",
              static_cast<unsigned long long>(spill.spill_forwarded), identical,
              mismatched, shed);
  if (spill.spill_forwarded == 0 || identical == 0 || mismatched != 0) {
    std::printf("FAIL: cross-node spill gate\n");
    return 1;
  }

  // 4. Staged rollout: write the retrained artifact and drive one watcher
  // pass — canary, probe, commit.
  if (!serve::save_model(model_v2, model_dir + "/bldg-A.noble")) {
    std::printf("FAIL: cannot write the v2 artifact\n");
    return 1;
  }
  coordinator.scan_model_dir();
  for (const std::string& line : coordinator.rollout_log())
    std::printf("  %s\n", line.c_str());
  const cluster::CoordinatorCounters counters = coordinator.counters();
  const bool converged = wait_until([&] {
    std::size_t on_v2 = 0;
    for (const auto& member : coordinator.members()) {
      for (const auto& shard : member.shards) {
        if (shard.digest == wifi_v2.artifact_digest()) ++on_v2;
      }
    }
    return on_v2 == 2;
  });
  bool rollout_served_v2 = true;
  for (const auto& q : probes) {
    engine::Submission sub = node_b->submit("bldg-A", q, {});
    rollout_served_v2 = rollout_served_v2 && sub.accepted() &&
                        sub.result.get() == wifi_v2.locate(q);
  }
  std::printf("rollout: committed %llu, probes matched %llu, fleet on v2 %s\n\n",
              static_cast<unsigned long long>(counters.rollouts_committed),
              static_cast<unsigned long long>(counters.probes_matched),
              converged && rollout_served_v2 ? "yes" : "NO");
  if (counters.rollouts_committed != 1 || counters.probes_mismatched != 0 ||
      !converged || !rollout_served_v2) {
    std::printf("FAIL: staged rollout gate\n");
    return 1;
  }

  // 5. Death: stop node B; the coordinator's next liveness verdict marks it
  // dead and node A's spill has no target left.
  node_b->stop();
  const bool marked_dead = wait_until([&] {
    if (sees_alive_peer(*node_a, "node-b")) return false;
    for (const auto& member : coordinator.members()) {
      if (member.name == "node-b") return !member.alive;
    }
    return false;
  });
  const std::uint64_t forwarded_before = node_a->counters().spill_forwarded;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    engine::Submission sub = node_a->submit("bldg-A", queries[i % queries.size()], bulk);
    if (sub.accepted()) {
      (void)sub.result;  // settles on drain; the gate is the verdict mix below
    } else {
      ++rejected;
    }
  }
  const bool spill_stopped = node_a->counters().spill_forwarded == forwarded_before;
  std::printf("death: node-b marked dead %s; post-death flood: %zu explicit "
              "kQueueFull, spill delta 0 %s\n",
              marked_dead ? "yes" : "NO", rejected, spill_stopped ? "yes" : "NO");
  node_a->stop();
  coordinator.stop();
  std::filesystem::remove_all(model_dir);
  if (!marked_dead || !spill_stopped || rejected == 0) {
    std::printf("FAIL: death-detection gate\n");
    return 1;
  }

  std::printf("\nOK: spill, rollout and death gates all held\n");
  return 0;
}
