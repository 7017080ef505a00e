// noble::engine backends — the batched-locate provider the worker pool
// serves from.
//
// A WifiBackend is an opaque batched-locate provider — the standard shape
// of production inference runtimes, where every kernel sits behind one
// uniform batched-op signature:
//
//   locate_batch(span<RssiVector>) -> vector<Fix>   the batched hot path
//   input_dim()                                     admission-control check
//
// An engine owns one backend and every worker calls it concurrently, so
// locate_batch must be const and thread-safe. Backends must also be
// deterministic and batch-invariant: a query's Fix may not depend on what
// else was coalesced into its micro-batch. That is what keeps the engine's
// equivalence contract ("routed == direct, however requests were batched")
// checkable per backend.
//
// PlanBackend is the one built-in implementation: a compiled
// serve::OptimizedNetwork plan at either precision. The interface stays so
// tests can inject fakes (a deliberately slow backend, for instance).
#ifndef NOBLE_ENGINE_BACKEND_H_
#define NOBLE_ENGINE_BACKEND_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "serve/fix.h"
#include "serve/optimized.h"
#include "serve/wifi_localizer.h"

namespace noble::engine {

/// Opaque batched Wi-Fi localization provider consumed by Engine workers.
class WifiBackend {
 public:
  virtual ~WifiBackend() = default;

  /// Localizes a batch of raw scans; one Fix per query, order-preserving.
  /// Must be const, thread-safe, deterministic and batch-invariant.
  virtual std::vector<serve::Fix> locate_batch(
      std::span<const serve::RssiVector> queries) const = 0;

  /// Expected scan width; submissions of any other size are rejected with
  /// kBadDimension before they reach a worker.
  virtual std::size_t input_dim() const = 0;

  /// Stable identifier for telemetry and bench output.
  virtual std::string name() const = 0;
};

/// The serving backend: the localizer's featurization and logit decoding
/// around one compiled plan. fp32 serves from the localizer's own plan
/// (bit-identical to WifiLocalizer::locate_batch); int8 compiles one
/// quantized plan at construction (per-output-channel int8 weights, per-row
/// dynamic activation scales), so its positions differ from fp32 by
/// quantization error but are bit-identical across batchings. The
/// localizer and plan are immutable, so every worker reads them lock-free.
class PlanBackend final : public WifiBackend {
 public:
  using Precision = serve::OptimizedNetwork::Precision;

  /// Deep-copies the localizer's model once (shared-nothing with the
  /// original).
  explicit PlanBackend(const serve::WifiLocalizer& localizer,
                       Precision precision = Precision::kFloat32);

  std::vector<serve::Fix> locate_batch(
      std::span<const serve::RssiVector> queries) const override;
  std::size_t input_dim() const override { return localizer_->num_aps(); }
  /// precision_name() of the plan's precision.
  std::string name() const override;

  /// The packed plan this backend serves from.
  std::shared_ptr<const serve::OptimizedNetwork> plan() const { return plan_; }

 private:
  // plan_ borrows heap-stable layer state from localizer_'s network, so the
  // localizer pointer must be declared first and kept alive alongside it.
  std::shared_ptr<const serve::WifiLocalizer> localizer_;
  std::shared_ptr<const serve::OptimizedNetwork> plan_;
};

/// "dense" (fp32) or "quantized" (int8): the backend's telemetry name.
std::string_view precision_name(serve::OptimizedNetwork::Precision precision);

}  // namespace noble::engine

#endif  // NOBLE_ENGINE_BACKEND_H_
