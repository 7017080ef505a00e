// One env-knob reader for every bench binary.
//
// Every read goes through integer()/flag()/text(), which apply the
// environment over the caller's default AND record what was read — name,
// resolved value, and whether the environment or the default supplied it.
// describe() then renders the whole record, so a CI log always shows the
// exact knob set that produced a run, including the knobs left at their
// defaults. A bench constructs one EnvConfig, reads every config through
// it, and prints describe() once.
#ifndef NOBLE_BENCH_SUPPORT_ENV_CONFIG_H_
#define NOBLE_BENCH_SUPPORT_ENV_CONFIG_H_

#include <string>
#include <vector>

#include "cluster/coordinator.h"
#include "cluster/node.h"
#include "engine/engine.h"

namespace noble::bench {

/// One recorded environment read.
struct EnvKnob {
  std::string name;   ///< e.g. "NOBLE_ENGINE_WORKERS"
  std::string value;  ///< resolved value, rendered as text
  bool from_env = false;  ///< true when the environment overrode the default
};

class EnvConfig {
 public:
  // --- primitive recorded reads ----------------------------------------------
  long integer(const char* name, long fallback);
  bool flag(const char* name, bool fallback);  ///< "0" = false, anything else true
  std::string text(const char* name, std::string fallback);

  // --- composite readers (env applied over `defaults`) ------------------------
  /// NOBLE_ENGINE_* family + the process-wide NOBLE_KERNEL override.
  /// `defaults.workers == 0` means auto-size to min(hardware, 8), at least 2.
  engine::EngineConfig engine(engine::EngineConfig defaults = {});
  /// NOBLE_CLUSTER_NODE (name), NOBLE_CLUSTER_SERVE_PORT,
  /// NOBLE_CLUSTER_COORD_HOST / NOBLE_CLUSTER_COORD_PORT,
  /// NOBLE_CLUSTER_HEARTBEAT_MS, NOBLE_CLUSTER_SPILL (0/1).
  cluster::NodeConfig cluster_node(cluster::NodeConfig defaults = {});
  /// NOBLE_CLUSTER_PORT, NOBLE_CLUSTER_DEAD_AFTER_MS,
  /// NOBLE_CLUSTER_MODEL_DIR, NOBLE_CLUSTER_POLL_MS.
  cluster::CoordinatorConfig cluster_coordinator(
      cluster::CoordinatorConfig defaults = {});

  /// Multi-line "NOBLE_X=value" / "NOBLE_X=value (default)" record of every
  /// read so far, in read order (a re-read replaces its entry) — the one
  /// banner path for env-driven configuration.
  std::string describe() const;

 private:
  void record(const char* name, std::string value, bool from_env);
  std::vector<EnvKnob> knobs_;
};

}  // namespace noble::bench

#endif  // NOBLE_BENCH_SUPPORT_ENV_CONFIG_H_
