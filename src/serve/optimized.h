// Load-time network optimization for serving.
//
// An OptimizedNetwork is an execution plan compiled once from a fitted
// nn::Sequential: every Dense layer becomes one fused kernel call with its
// weights pre-packed into the kernel layer's blocked layout, a following
// BatchNorm1d is folded into the call's per-channel affine epilogue, and a
// following activation (Tanh/Relu/Sigmoid) rides the same epilogue. Layers
// the optimizer doesn't recognize execute unchanged through Layer::infer, so
// any network the trainer can produce still serves correctly.
//
// Exactness contract: optimization never changes a single output bit.
//   - Pre-packing only permutes weight storage; the kernels accumulate in
//     the reference order regardless of layout.
//   - BN folding does NOT scale the weight matrix (that would re-associate
//     fp32 products). It precomputes inv_std = 1/sqrt(running_var + eps) per
//     channel and applies gamma*(v - mean)*inv_std + beta — the literal
//     BatchNorm1d::infer expression — after the GEMM.
//   - Fused activations run the literal activation-layer expressions.
// `predict` is therefore bit-identical to running the original Sequential.
// That is what lets the serving stack adopt plans with zero training-code
// changes and keeps the engine's tolerance-zero equivalence harness
// meaningful.
//
// Plans are immutable after construction and safe to share across threads
// (every worker of an engine serves from its backend's one plan).
// Passthrough steps borrow Layer pointers from the source network: the
// network object may move (layers are heap-allocated, their addresses are
// stable) but must outlive the plan.
#ifndef NOBLE_SERVE_OPTIMIZED_H_
#define NOBLE_SERVE_OPTIMIZED_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "kernels/kernels.h"
#include "linalg/matrix.h"
#include "nn/network.h"

namespace noble::serve {

/// What the optimizer did to a network — telemetry for bench headers and the
/// fusion test suites.
struct OptimizedStats {
  std::size_t fused_dense = 0;         ///< Dense layers lowered to kernel calls
  std::size_t folded_batchnorm = 0;    ///< BatchNorm1d folded into epilogues
  std::size_t fused_activations = 0;   ///< activations fused into epilogues
  std::size_t passthrough_layers = 0;  ///< layers served via Layer::infer
  std::size_t packed_bytes = 0;        ///< pre-packed weight storage
};

/// Immutable fused/pre-packed serving plan. See the file comment for the
/// exactness contract.
class OptimizedNetwork {
 public:
  /// Compiles a plan from a fitted network. The network must outlive the
  /// plan.
  explicit OptimizedNetwork(const nn::Sequential& net);

  /// Runs the plan. Thread-safe, deterministic, batch-invariant.
  linalg::Mat predict(const linalg::Mat& x) const;

  const OptimizedStats& stats() const { return stats_; }

 private:
  /// One fused execution step: either a kernel call (packed weights + fused
  /// epilogue) or a borrowed passthrough layer.
  struct Step {
    const nn::Layer* passthrough = nullptr;  ///< set => run Layer::infer
    kernels::PackedDense packed;
    std::vector<float> bias;
    std::optional<kernels::BnFold> bn;
    kernels::Activation act = kernels::Activation::kNone;
  };

  std::vector<Step> steps_;
  OptimizedStats stats_;
};

/// Builds a shared immutable plan — the form the serving stack passes around
/// (localizer plus every replica clone hold the same pointer).
std::shared_ptr<const OptimizedNetwork> optimize_network(const nn::Sequential& net);

}  // namespace noble::serve

#endif  // NOBLE_SERVE_OPTIMIZED_H_
