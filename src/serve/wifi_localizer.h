// Immutable Wi-Fi serving front end: single-query and batched localization
// over a fitted NObLe model, decoupled from the dataset machinery.
//
// Construction is the only mutation. `locate` / `locate_batch` are const
// and run through the network's mutation-free inference path, so one
// localizer can serve concurrent threads without synchronization — the
// paper's on-device deployment story (§IV-C) as an API contract.
#ifndef NOBLE_SERVE_WIFI_LOCALIZER_H_
#define NOBLE_SERVE_WIFI_LOCALIZER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/noble_wifi.h"
#include "serve/fix.h"
#include "serve/optimized.h"

namespace noble::serve {

class WifiLocalizer {
 public:
  /// Takes ownership of a fitted model. Precondition: model.fitted().
  explicit WifiLocalizer(core::NobleWifiModel model);

  /// Deep-copies the deployable state of a fitted model, leaving the
  /// original usable (the in-memory counterpart of save + load).
  static WifiLocalizer from_model(const core::NobleWifiModel& model);

  /// Loads from an artifact written by serve::save_model; nullopt when the
  /// file is unreadable, malformed or not a "wifi" artifact.
  static std::optional<WifiLocalizer> load(const std::string& path);

  /// Localizes one raw RSSI scan (rssi.size() == num_aps()). Thread-safe.
  Fix locate(const RssiVector& rssi) const;

  /// Localizes a batch in one network pass (amortizes the GEMM); returns
  /// one Fix per query, identical to per-query `locate` results. The span
  /// converts implicitly from a std::vector<RssiVector>.
  std::vector<Fix> locate_batch(std::span<const RssiVector> queries) const;

  /// Stacks raw scans into the normalized feature matrix the network
  /// consumes. Public so per-layer measurements can time the plan alone on
  /// the exact featurization `locate_batch` feeds it.
  linalg::Mat featurize(std::span<const RssiVector> queries) const;

  /// Expected scan width (access-point count the model was fitted on).
  std::size_t num_aps() const { return model_.input_dim(); }

  /// Content identity of the fitted model: FNV-1a over its serialized
  /// artifact bytes, computed once at construction. Two localizers with
  /// equal digests serve bit-identical fixes (same weights, same quantizer)
  /// — the comparison the cluster uses to decide where a spilled request
  /// may land and when a rollout has converged.
  std::uint64_t artifact_digest() const { return artifact_digest_; }

  const core::SpaceQuantizer& quantizer() const { return model_.quantizer(); }
  const core::NobleWifiModel& model() const { return model_; }

  /// The load-time-optimized fp32 execution plan (BN-folded, fused,
  /// pre-packed) `locate` / `locate_batch` run through — bit-identical to
  /// the raw network by the OptimizedNetwork exactness contract.
  std::shared_ptr<const OptimizedNetwork> plan() const { return plan_; }

 private:
  /// Decodes one row of output logits into a Fix. `logits` must have
  /// layout().total() entries.
  Fix decode_logits(const float* logits) const;

  core::NobleWifiModel model_;
  // Built once at construction (the serving "load_model optimization pass");
  // borrows only heap-stable layer state, so moving the localizer is safe.
  std::shared_ptr<const OptimizedNetwork> plan_;
  std::uint64_t artifact_digest_ = 0;
};

}  // namespace noble::serve

#endif  // NOBLE_SERVE_WIFI_LOCALIZER_H_
