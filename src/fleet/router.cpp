#include "fleet/router.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "common/hash.h"
#include "serve/wifi_localizer.h"
#include "serve/imu_localizer.h"

namespace noble::fleet {

namespace {

/// Primary-engine selection: FNV-1a over the scan rounded to whole dB, so
/// the same scan always lands on the same engine of a shard and placement
/// is deterministic. The hash only spreads load; correctness never depends
/// on it (all engines of a shard are replicas).
std::size_t primary_engine(const serve::RssiVector& rssi, std::size_t num_engines) {
  std::uint64_t h = common::kFnvOffsetBasis;
  for (const float v : rssi) {
    const auto q = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(std::llround(static_cast<double>(v))));
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (q >> (8 * byte)) & 0xffu;
      h *= common::kFnvPrime;
    }
  }
  return static_cast<std::size_t>(h) % num_engines;
}

}  // namespace

bool Router::add_shard(const ShardConfig& config, const serve::WifiLocalizer& wifi) {
  if (config.key.empty() || config.engines == 0) return false;
  std::shared_ptr<Shard> shard = build_shard(config, wifi, nullptr);
  std::unique_lock<std::shared_mutex> lock(mu_);
  return shards_.emplace(config.key, std::move(shard)).second;
}

bool Router::add_shard(const ShardConfig& config, const serve::WifiLocalizer& wifi,
                       const serve::ImuLocalizer& imu) {
  if (config.key.empty() || config.engines == 0) return false;
  std::shared_ptr<Shard> shard = build_shard(config, wifi, &imu);
  std::unique_lock<std::shared_mutex> lock(mu_);
  return shards_.emplace(config.key, std::move(shard)).second;
}

std::shared_ptr<Router::Shard> Router::build_shard(const ShardConfig& config,
                                                   const serve::WifiLocalizer& wifi,
                                                   const serve::ImuLocalizer* imu) {
  auto shard = std::make_shared<Shard>();
  shard->config = config;
  // The shard's artifact identity is derived from the localizers, never
  // trusted from the caller's config: a wifi-only shard is its wifi digest,
  // a wifi+imu shard chains the imu digest onto it (order fixed, so the
  // combined identity is stable).
  std::uint64_t model_digest = wifi.artifact_digest();
  if (imu != nullptr) {
    const std::uint64_t imu_digest = imu->artifact_digest();
    model_digest = common::fnv1a64(
        std::string_view(reinterpret_cast<const char*>(&imu_digest), sizeof imu_digest),
        model_digest);
  }
  shard->config.artifact_digest = model_digest;
  shard->generation = next_generation_.fetch_add(1);
  shard->engines.reserve(config.engines);
  for (std::size_t i = 0; i < config.engines; ++i) {
    shard->engines.push_back(
        imu != nullptr
            ? std::make_unique<engine::Engine>(wifi, *imu, config.engine)
            : std::make_unique<engine::Engine>(wifi, config.engine));
  }
  return shard;
}

std::shared_ptr<Router::Shard> Router::find_shard(std::string_view key) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const auto it = shards_.find(key);
  return it == shards_.end() ? nullptr : it->second;
}

engine::Submission Router::submit(std::string_view shard_key,
                                  const serve::RssiVector& rssi,
                                  const engine::SubmitOptions& options) {
  engine::Submission last{engine::SubmitStatus::kNoShard, {}};
  for (int attempt = 0; attempt < 2; ++attempt) {
    std::shared_ptr<Shard> shard = find_shard(shard_key);
    if (shard == nullptr) return {engine::SubmitStatus::kNoShard, {}};
    const std::size_t n = shard->engines.size();
    const std::size_t primary = primary_engine(rssi, n);
    // Primary first for every class: deterministic fingerprint placement.
    // Only kQueueFull falls through — any other verdict is a property of
    // the whole shard (replicas are identical).
    last = shard->engines[primary]->submit(rssi, options);
    if (last.status == engine::SubmitStatus::kQueueFull && n > 1) {
      if (options.request_class == engine::RequestClass::kBulk) {
        // Fleet-wide load shedding: a shedding bulk sweep hunts for
        // capacity, not placement — spill to the shallowest *bulk lane*
        // first: interactive entries outrank bulk on every engine
        // anyway, so total depth mistakes interactive-busy engines for
        // bulk-full ones. Depths are snapshotted once per engine before
        // sorting (comparing live depths inside the sort would break
        // strict weak ordering while workers drain concurrently); the
        // stable sort keeps the probe order deterministic on ties.
        std::vector<std::pair<std::size_t, std::size_t>> order;
        order.reserve(n - 1);
        for (std::size_t probe = 1; probe < n; ++probe) {
          const std::size_t index = (primary + probe) % n;
          order.emplace_back(
              shard->engines[index]->queue_depth(engine::RequestClass::kBulk), index);
        }
        std::stable_sort(order.begin(), order.end(),
                         [](const auto& a, const auto& b) { return a.first < b.first; });
        for (const auto& [depth, index] : order) {
          last = shard->engines[index]->submit(rssi, options);
          if (last.status != engine::SubmitStatus::kQueueFull) break;
        }
      } else {
        // Interactive keeps the consistent, deterministic probe order —
        // and pays no depth locks on its latency path.
        for (std::size_t probe = 1; probe < n; ++probe) {
          last = shard->engines[(primary + probe) % n]->submit(rssi, options);
          if (last.status != engine::SubmitStatus::kQueueFull) break;
        }
      }
    }
    if (last.status != engine::SubmitStatus::kStopped) return last;
    // kStopped from a routed engine means this generation was hot-swapped
    // under us; re-resolve the key and retry once on the replacement.
    if (find_shard(shard_key) == shard) break;
  }
  return last;
}

std::optional<FleetSession> Router::open_session(std::string_view shard_key,
                                                 const geo::Point2& start) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    std::shared_ptr<Shard> shard = find_shard(shard_key);
    if (shard == nullptr) return std::nullopt;
    const std::size_t n = shard->engines.size();
    const std::size_t first = shard->next_session_engine.fetch_add(1) % n;
    for (std::size_t probe = 0; probe < n; ++probe) {
      const std::size_t index = (first + probe) % n;
      if (std::optional<engine::SessionId> id = shard->engines[index]->open_session(start)) {
        return FleetSession{shard->config.key, shard->generation, index, *id};
      }
    }
    // Every engine refused: either the shard has no IMU model, or its
    // generation was hot-swapped under us (stopped engines refuse opens).
    // Mirror submit(): retry once iff the registry now holds a new shard.
    if (find_shard(shard_key) == shard) break;
  }
  return std::nullopt;
}

engine::Submission Router::track(const FleetSession& session, serve::ImuSegment segment,
                                 const engine::SubmitOptions& options) {
  std::shared_ptr<Shard> shard = find_shard(session.shard);
  if (shard == nullptr || shard->generation != session.generation ||
      session.engine >= shard->engines.size()) {
    return {engine::SubmitStatus::kNoSession, {}};
  }
  return shard->engines[session.engine]->track(session.id, std::move(segment), options);
}

bool Router::close_session(const FleetSession& session) {
  std::shared_ptr<Shard> shard = find_shard(session.shard);
  if (shard == nullptr || shard->generation != session.generation ||
      session.engine >= shard->engines.size()) {
    return false;
  }
  return shard->engines[session.engine]->close_session(session.id);
}

bool Router::hot_swap(std::string_view shard_key, const serve::WifiLocalizer& wifi) {
  return swap_impl(shard_key, wifi, nullptr);
}

bool Router::hot_swap(std::string_view shard_key, const serve::WifiLocalizer& wifi,
                      const serve::ImuLocalizer& imu) {
  return swap_impl(shard_key, wifi, &imu);
}

bool Router::swap_impl(std::string_view key, const serve::WifiLocalizer& wifi,
                       const serve::ImuLocalizer* imu) {
  ShardConfig config;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    const auto it = shards_.find(key);
    if (it == shards_.end()) return false;
    config = it->second->config;
  }
  // Engines are built outside every lock (model replication is the slow
  // part), then swapped in atomically.
  std::shared_ptr<Shard> fresh = build_shard(config, wifi, imu);
  std::shared_ptr<Shard> old;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    const auto it = shards_.find(key);
    if (it == shards_.end()) return false;  // removed while we were building
    old = std::exchange(it->second, std::move(fresh));
  }
  // Drain the old generation outside the registry lock: every accepted
  // future resolves (against the old model); racing submissions observe
  // kStopped and retry onto the new generation inside submit().
  for (const auto& eng : old->engines) eng->shutdown();
  return true;
}

FleetStats Router::stats() const {
  FleetStats out;
  std::shared_lock<std::shared_mutex> lock(mu_);
  // Depth gauges first, in one tight pass: eng->stats() copies whole
  // histograms, and interleaving depth reads with those copies used to put
  // milliseconds between the first and last engine's gauge — under load the
  // "fleet depth" was a smear of instants that disagreed with the per-engine
  // sum. One quick pass (queue locks only, no copies) nails every lane depth
  // to nearly the same instant; the stats copies below then *overwrite*
  // their own depth reads with the pass's values, which is what makes the
  // FleetStats consistency contract hold exactly. One (interactive, bulk)
  // pair per engine, in registry order.
  std::vector<std::pair<std::size_t, std::size_t>> depths;
  for (const auto& [key, shard] : shards_) {
    for (const auto& eng : shard->engines) {
      depths.emplace_back(eng->queue_depth(engine::RequestClass::kInteractive),
                          eng->queue_depth(engine::RequestClass::kBulk));
    }
  }
  out.num_engines = depths.size();
  auto depth = depths.begin();
  for (const auto& [key, shard] : shards_) {
    engine::EngineStats merged;
    for (const auto& eng : shard->engines) {
      engine::EngineStats snap = eng->stats();
      snap.set_queue_depths(depth->first, depth->second);
      ++depth;
      merged.merge(snap);
    }
    out.total.merge(merged);
    out.shards.emplace(key, std::move(merged));
    out.artifacts.push_back(
        ShardArtifact{key, shard->config.artifact_digest, shard->generation});
  }
  return out;
}

std::vector<ShardDepths> Router::queue_depths() const {
  std::vector<ShardDepths> out;
  std::shared_lock<std::shared_mutex> lock(mu_);
  out.reserve(shards_.size());
  for (const auto& [key, shard] : shards_) {
    ShardDepths depths;
    depths.shard = key;
    depths.engines.reserve(shard->engines.size());
    depths.bulk.reserve(shard->engines.size());
    for (const auto& eng : shard->engines) {
      depths.engines.push_back(eng->queue_depth());
      depths.bulk.push_back(eng->queue_depth(engine::RequestClass::kBulk));
    }
    out.push_back(std::move(depths));
  }
  return out;
}

std::vector<ShardArtifact> Router::shard_artifacts() const {
  std::vector<ShardArtifact> out;
  std::shared_lock<std::shared_mutex> lock(mu_);
  out.reserve(shards_.size());
  for (const auto& [key, shard] : shards_) {
    out.push_back(ShardArtifact{key, shard->config.artifact_digest, shard->generation});
  }
  return out;
}

std::vector<engine::EngineStats> Router::shard_engine_stats(
    std::string_view shard_key) const {
  std::vector<engine::EngineStats> out;
  std::shared_ptr<Shard> shard = find_shard(shard_key);
  if (shard == nullptr) return out;
  out.reserve(shard->engines.size());
  for (const auto& eng : shard->engines) out.push_back(eng->stats());
  return out;
}

bool Router::has_shard(std::string_view shard_key) const {
  return find_shard(shard_key) != nullptr;
}

std::size_t Router::num_shards() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return shards_.size();
}

void Router::shutdown() {
  std::vector<std::shared_ptr<Shard>> all;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    all.reserve(shards_.size());
    for (const auto& [key, shard] : shards_) all.push_back(shard);
  }
  for (const auto& shard : all) {
    for (const auto& eng : shard->engines) eng->shutdown();
  }
}

}  // namespace noble::fleet
