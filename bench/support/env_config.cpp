#include "support/env_config.h"

#include <algorithm>
#include <cstdlib>
#include <thread>
#include <utility>

#include "engine/backend.h"
#include "kernels/kernels.h"

namespace noble::bench {

void EnvConfig::record(const char* name, std::string value, bool from_env) {
  for (EnvKnob& knob : knobs_) {
    if (knob.name == name) {
      knob.value = std::move(value);
      knob.from_env = from_env;
      return;
    }
  }
  knobs_.push_back(EnvKnob{name, std::move(value), from_env});
}

long EnvConfig::integer(const char* name, long fallback) {
  long value = fallback;
  bool from_env = false;
  if (const char* raw = std::getenv(name); raw != nullptr && *raw != '\0') {
    char* end = nullptr;
    const long parsed = std::strtol(raw, &end, 10);
    if (end != raw && *end == '\0') {
      value = parsed;
      from_env = true;
    }
  }
  record(name, std::to_string(value), from_env);
  return value;
}

bool EnvConfig::flag(const char* name, bool fallback) {
  const bool value = integer(name, fallback ? 1 : 0) != 0;
  // integer() already recorded the numeric form; normalize to 0/1.
  record(name, value ? "1" : "0", knobs_.back().from_env);
  return value;
}

std::string EnvConfig::text(const char* name, std::string fallback) {
  std::string value = std::move(fallback);
  bool from_env = false;
  if (const char* raw = std::getenv(name); raw != nullptr && *raw != '\0') {
    value = raw;
    from_env = true;
  }
  record(name, value, from_env);
  return value;
}

std::string EnvConfig::describe() const {
  std::string out;
  for (const EnvKnob& knob : knobs_) {
    out += "  " + knob.name + "=" + knob.value;
    if (!knob.from_env) out += " (default)";
    out += "\n";
  }
  return out;
}

engine::EngineConfig EnvConfig::engine(engine::EngineConfig defaults) {
  // NOBLE_KERNEL=scalar|avx2|auto selects the kernel ISA for the whole
  // process (every backend serves through noble::kernels); re-applied here
  // so benches pick the knob up no matter when they build their config.
  kernels::apply_env_override();
  text("NOBLE_KERNEL", kernels::isa_name(kernels::active_isa()));
  engine::EngineConfig cfg = defaults;
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t worker_default =
      defaults.workers == 0 ? std::clamp<std::size_t>(hw, 2, 8) : defaults.workers;
  cfg.workers = static_cast<std::size_t>(
      integer("NOBLE_ENGINE_WORKERS", static_cast<long>(worker_default)));
  cfg.max_batch = static_cast<std::size_t>(
      integer("NOBLE_ENGINE_MAX_BATCH", static_cast<long>(defaults.max_batch)));
  cfg.max_wait_us = static_cast<std::uint64_t>(
      integer("NOBLE_ENGINE_MAX_WAIT_US", static_cast<long>(defaults.max_wait_us)));
  cfg.queue_cap = static_cast<std::size_t>(
      integer("NOBLE_ENGINE_QUEUE_CAP", static_cast<long>(defaults.queue_cap)));
  using Precision = serve::OptimizedNetwork::Precision;
  cfg.precision = text("NOBLE_ENGINE_BACKEND",
                       std::string(engine::precision_name(defaults.precision))) ==
                          engine::precision_name(Precision::kInt8)
                      ? Precision::kInt8
                      : Precision::kFloat32;
  // "interactive:bulk" queue-slot caps; malformed input keeps the defaults.
  const std::string caps =
      text("NOBLE_ENGINE_CLASS_CAPS", std::to_string(defaults.interactive_cap) + ":" +
                                          std::to_string(defaults.bulk_cap));
  if (const std::size_t colon = caps.find(':'); colon != std::string::npos) {
    char* end = nullptr;
    const unsigned long interactive = std::strtoul(caps.c_str(), &end, 10);
    if (end == caps.c_str() + colon) {
      const char* bulk_begin = caps.c_str() + colon + 1;
      const unsigned long bulk = std::strtoul(bulk_begin, &end, 10);
      if (end != bulk_begin && *end == '\0') {
        cfg.interactive_cap = static_cast<std::size_t>(interactive);
        cfg.bulk_cap = static_cast<std::size_t>(bulk);
      }
    }
  }
  cfg.default_deadline_us = static_cast<std::uint64_t>(integer(
      "NOBLE_ENGINE_DEADLINE_US", static_cast<long>(defaults.default_deadline_us)));
  return cfg;
}

cluster::NodeConfig EnvConfig::cluster_node(cluster::NodeConfig defaults) {
  cluster::NodeConfig cfg = std::move(defaults);
  cfg.name = text("NOBLE_CLUSTER_NODE", cfg.name);
  cfg.server.port = static_cast<std::uint16_t>(
      integer("NOBLE_CLUSTER_SERVE_PORT", cfg.server.port));
  cfg.coordinator_host = text("NOBLE_CLUSTER_COORD_HOST", cfg.coordinator_host);
  cfg.coordinator_port = static_cast<std::uint16_t>(
      integer("NOBLE_CLUSTER_COORD_PORT", cfg.coordinator_port));
  cfg.heartbeat_ms = static_cast<std::uint64_t>(
      integer("NOBLE_CLUSTER_HEARTBEAT_MS", static_cast<long>(cfg.heartbeat_ms)));
  cfg.spill_enabled = flag("NOBLE_CLUSTER_SPILL", cfg.spill_enabled);
  return cfg;
}

cluster::CoordinatorConfig EnvConfig::cluster_coordinator(
    cluster::CoordinatorConfig defaults) {
  cluster::CoordinatorConfig cfg = std::move(defaults);
  cfg.server.port =
      static_cast<std::uint16_t>(integer("NOBLE_CLUSTER_PORT", cfg.server.port));
  cfg.dead_after_ms = static_cast<std::uint64_t>(
      integer("NOBLE_CLUSTER_DEAD_AFTER_MS", static_cast<long>(cfg.dead_after_ms)));
  cfg.model_dir = text("NOBLE_CLUSTER_MODEL_DIR", cfg.model_dir);
  cfg.poll_ms = static_cast<std::uint64_t>(
      integer("NOBLE_CLUSTER_POLL_MS", static_cast<long>(cfg.poll_ms)));
  return cfg;
}

}  // namespace noble::bench
