// Shared numeric tails — compiled exactly once so every ISA path executes
// the same machine code for everything outside the GEMM inner loop. This is
// half of the bit-identity contract; the other half is the accumulation-order
// discipline inside the per-ISA bodies.

#include <cmath>

#include "kernels/internal.h"

namespace noble::kernels::detail {

void apply_epilogue_row(float* y, std::size_t n, const Epilogue& ep) {
  if (ep.bias != nullptr) {
    for (std::size_t j = 0; j < n; ++j) y[j] += ep.bias[j];
  }
  if (ep.bn != nullptr) {
    // The exact BatchNorm1d::infer expression with 1/sqrt(var + eps)
    // precomputed per channel — same parse, same rounding, tolerance-zero.
    const BnFold& bn = *ep.bn;
    for (std::size_t j = 0; j < n; ++j) {
      y[j] = bn.gamma[j] * (y[j] - bn.mean[j]) * bn.inv_std[j] + bn.beta[j];
    }
  }
  switch (ep.act) {
    case Activation::kNone:
      break;
    case Activation::kTanh:
      for (std::size_t j = 0; j < n; ++j) y[j] = std::tanh(y[j]);
      break;
    case Activation::kRelu:
      for (std::size_t j = 0; j < n; ++j) y[j] = y[j] > 0.0f ? y[j] : 0.0f;
      break;
    case Activation::kSigmoid:
      for (std::size_t j = 0; j < n; ++j) y[j] = 1.0f / (1.0f + std::exp(-y[j]));
      break;
  }
}

}  // namespace noble::kernels::detail
