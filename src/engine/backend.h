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
// PlanBackend is the one built-in implementation: a private copy of the
// localizer, serving from its compiled serve::OptimizedNetwork plan. The
// interface stays so tests can inject fakes (a deliberately slow backend,
// for instance).
#ifndef NOBLE_ENGINE_BACKEND_H_
#define NOBLE_ENGINE_BACKEND_H_

#include <memory>
#include <span>
#include <vector>

#include "serve/fix.h"
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
};

/// The serving backend: a deep copy of the localizer, served through its
/// fp32 plan (bit-identical to WifiLocalizer::locate_batch). The copy is
/// immutable, so every worker reads it lock-free.
class PlanBackend final : public WifiBackend {
 public:
  /// Deep-copies the localizer's model once (shared-nothing with the
  /// original).
  explicit PlanBackend(const serve::WifiLocalizer& localizer);

  std::vector<serve::Fix> locate_batch(
      std::span<const serve::RssiVector> queries) const override;
  std::size_t input_dim() const override { return localizer_->num_aps(); }

 private:
  std::shared_ptr<const serve::WifiLocalizer> localizer_;
};

}  // namespace noble::engine

#endif  // NOBLE_ENGINE_BACKEND_H_
