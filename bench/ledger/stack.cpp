// Serving-stack construction and the cold-start (set-up) measurement.
#include <thread>

#include "cluster/coordinator.h"
#include "cluster/node.h"
#include "gateway/client.h"
#include "gateway/gateway.h"
#include "ledger.h"
#include "serve/artifact.h"

namespace ledger {

using namespace noble;

struct Stack::Parts {
  // Declaration order is teardown order reversed: front ends stop before
  // the routers they hold references to.
  std::vector<std::unique_ptr<fleet::Router>> routers;
  std::unique_ptr<cluster::Coordinator> coordinator;
  std::vector<std::unique_ptr<cluster::NodeAgent>> nodes;
  std::unique_ptr<gateway::Listener> listener;
};

namespace {

double seconds_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) / 1e9; }

bool sees_alive(const cluster::NodeAgent& agent, const std::string& peer) {
  for (const auto& info : agent.peers()) {
    if (info.name == peer && info.alive && !info.shards.empty()) return true;
  }
  return false;
}

}  // namespace

Stack::Stack(Front front) : front_(front), parts_(std::make_unique<Parts>()) {}

Stack::~Stack() {
  if (parts_->listener) parts_->listener->stop();
  for (auto& node : parts_->nodes) node->stop();
  if (parts_->coordinator) parts_->coordinator->stop();
  for (auto& router : parts_->routers) router->shutdown();
}

std::unique_ptr<Stack> Stack::build(const Pool& pool, Front front, SetupTimes* times) {
  std::unique_ptr<Stack> stack(new Stack(front));
  Parts& parts = *stack->parts_;

  std::int64_t t = now_ns();
  std::optional<core::NobleWifiModel> wifi_model = serve::decode_wifi_model(pool.wifi_artifact);
  std::optional<core::NobleImuTracker> tracker = serve::decode_imu_model(pool.imu_artifact);
  if (!wifi_model || !tracker) return nullptr;
  times->decode_s = seconds_since(t);

  t = now_ns();
  stack->wifi_ = std::make_unique<serve::WifiLocalizer>(std::move(*wifi_model));
  stack->imu_ = std::make_unique<serve::ImuLocalizer>(std::move(*tracker));
  times->localizer_s = seconds_since(t);

  t = now_ns();
  fleet::ShardConfig shard;
  shard.key = kShard;
  parts.routers.push_back(std::make_unique<fleet::Router>());
  if (front == Front::kCluster) {
    // node-a overflows early so bulk traffic spills; node-b has room.
    fleet::ShardConfig tight = shard;
    tight.engine.queue_cap = 64;
    tight.engine.bulk_cap = 16;
    parts.routers[0]->add_shard(tight, *stack->wifi_, *stack->imu_);
    parts.routers.push_back(std::make_unique<fleet::Router>());
    parts.routers[1]->add_shard(shard, *stack->wifi_, *stack->imu_);
  } else {
    parts.routers[0]->add_shard(shard, *stack->wifi_, *stack->imu_);
  }
  times->stack_s = seconds_since(t);

  t = now_ns();
  if (front == Front::kGateway) {
    parts.listener = std::make_unique<gateway::Listener>(*parts.routers[0]);
    if (!parts.listener->start()) return nullptr;
  } else if (front == Front::kCluster) {
    parts.coordinator = std::make_unique<cluster::Coordinator>();
    if (!parts.coordinator->start()) return nullptr;
    for (std::size_t i = 0; i < 2; ++i) {
      cluster::NodeConfig cfg;
      cfg.name = i == 0 ? "node-a" : "node-b";
      cfg.coordinator_port = parts.coordinator->port();
      cfg.heartbeat_ms = 50;
      parts.nodes.push_back(std::make_unique<cluster::NodeAgent>(*parts.routers[i], cfg));
      if (!parts.nodes.back()->start()) return nullptr;
    }
    const std::int64_t give_up = now_ns() + 5'000'000'000;
    while (!(sees_alive(*parts.nodes[0], "node-b") && sees_alive(*parts.nodes[1], "node-a"))) {
      if (now_ns() > give_up) return nullptr;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }
  times->front_s = seconds_since(t);

  t = now_ns();
  if (front == Front::kGateway) {
    std::optional<gateway::GatewayClient> client =
        gateway::GatewayClient::connect("127.0.0.1", parts.listener->port());
    if (!client || !client->locate(kShard, pool.scans[0]).ok()) return nullptr;
  } else {
    engine::Submission sub = stack->routing().submit(kShard, pool.scans[0]);
    if (!sub.accepted()) return nullptr;
    sub.result.get();
  }
  times->first_fix_s = seconds_since(t);
  return stack;
}

fleet::Routing& Stack::routing() {
  if (front_ == Front::kCluster) return *parts_->nodes[0];
  return *parts_->routers[0];
}

std::vector<const fleet::Router*> Stack::routers() const {
  std::vector<const fleet::Router*> out;
  for (const auto& router : parts_->routers) out.push_back(router.get());
  return out;
}

std::uint16_t Stack::gateway_port() const {
  return parts_->listener ? parts_->listener->port() : 0;
}

cluster::NodeCounters Stack::spill_counts() const {
  return parts_->nodes.empty() ? cluster::NodeCounters{} : parts_->nodes[0]->counters();
}

gateway::GatewayCounters Stack::wire_counts() const {
  return parts_->listener ? parts_->listener->counters() : gateway::GatewayCounters{};
}

SetupTimes measure_setup(const Pool& pool, Front front, int min_starts, double min_seconds,
                         double* total_s, int* starts) {
  std::vector<double> decode, localizer, stack_s, front_s, first_fix, teardown, total;
  const std::int64_t until = now_ns() + static_cast<std::int64_t>(min_seconds * 1e9);
  for (int i = 0; i < min_starts || now_ns() < until; ++i) {
    SetupTimes times;
    std::unique_ptr<Stack> stack = Stack::build(pool, front, &times);
    const std::int64_t t = now_ns();
    const bool built = stack != nullptr;
    stack.reset();
    times.teardown_s = seconds_since(t);
    if (!built) {
      *total_s = -1.0;
      return {};
    }
    decode.push_back(times.decode_s);
    localizer.push_back(times.localizer_s);
    stack_s.push_back(times.stack_s);
    front_s.push_back(times.front_s);
    first_fix.push_back(times.first_fix_s);
    teardown.push_back(times.teardown_s);
    total.push_back(times.total());
  }
  *total_s = median(total);
  *starts = static_cast<int>(total.size());
  SetupTimes out;
  out.decode_s = median(decode);
  out.localizer_s = median(localizer);
  out.stack_s = median(stack_s);
  out.front_s = median(front_s);
  out.first_fix_s = median(first_fix);
  out.teardown_s = median(teardown);
  return out;
}

}  // namespace ledger
