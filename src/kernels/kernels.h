// noble::kernels — the runtime-dispatched compute layer under every backend.
//
// Every forward pass in the stack (training-time Dense::infer, the serving
// localizers, the engine's replicas) bottoms out in one primitive: an fp32
// GEMM/GEMV with a fused bias + batch-norm + activation epilogue. This module
// owns it, in two interchangeable implementations:
//
//   scalar   the reference — plain k-ascending mul/add loops, the numeric
//            contract every other implementation must hit bit-for-bit
//   avx2     8-wide vectorized across the *output* dimension, selected at
//            runtime when the CPU supports it
//
// The bit-identity contract. A kernel's result may depend on neither the ISA
// it ran on nor the batch it was part of:
//   - accumulation over k is strictly ascending per output element; AVX2
//     vectorizes across independent output columns, so each element's
//     addition order is exactly the scalar order;
//   - multiply and add stay separate operations (no FMA contraction — the
//     AVX2 translation unit is compiled without -mfma, and the whole library
//     pins -ffp-contract=off), so each op rounds exactly like the scalar op;
//   - epilogues (bias, folded batch-norm, activation) run through a shared
//     helper compiled once, so both ISAs execute literally the same code.
// Rows are processed independently, which keeps every kernel batch-invariant:
// a query's output does not depend on what else was coalesced into its batch.
//
// Weight pre-packing. `PackedDense` re-lays weights into tile-friendly
// blocked form once at load time (column panels the width of the SIMD tile,
// contiguous over k), so the serving hot loop walks memory linearly. Packing only permutes storage — packed and unpacked kernels are
// bit-identical by the ordering contract above.
//
// Dispatch is resolved once at startup from CPUID, overridable with the
// NOBLE_KERNEL=scalar|avx2|auto environment knob or force_isa() (tests,
// benches). Requesting avx2 on hardware without it falls back to scalar.
#ifndef NOBLE_KERNELS_KERNELS_H_
#define NOBLE_KERNELS_KERNELS_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "linalg/matrix.h"

namespace noble::kernels {

// ---------------------------------------------------------------------------
// Dispatch control.
// ---------------------------------------------------------------------------

/// Instruction-set implementations a kernel call can dispatch to.
enum class Isa : int {
  kScalar = 0,  ///< reference implementation; defines the numeric contract
  kAvx2 = 1,    ///< AVX2 (x86), bit-identical to scalar by construction
};

/// True when the AVX2 implementation was compiled into this binary.
bool avx2_compiled();
/// True when the AVX2 implementation is compiled in AND the CPU supports it.
bool avx2_supported();

/// The ISA kernel calls dispatch to: a force_isa() override if set, else the
/// startup resolution (NOBLE_KERNEL env knob, else CPUID detection).
Isa active_isa();

/// Human-readable ISA name ("scalar" / "avx2").
const char* isa_name(Isa isa);

/// Test/bench override: force dispatch to `isa` (clamped to scalar when the
/// request cannot run here), or nullopt to restore startup resolution.
void force_isa(std::optional<Isa> isa);

/// Parses a NOBLE_KERNEL value: "scalar", "avx2", or "auto"/"" (nullopt =
/// detect). Unrecognized strings behave like "auto".
std::optional<Isa> parse_isa(std::string_view value);

/// Re-reads NOBLE_KERNEL and applies it as if at startup (bench entry points
/// call this so the knob is honored even after dispatch was first resolved).
void apply_env_override();

/// Count of weight-packing operations performed process-wide — the test hook
/// for the "an engine's workers share one packed plan" contract.
std::uint64_t pack_operations();

// ---------------------------------------------------------------------------
// Fused epilogues.
// ---------------------------------------------------------------------------

/// Activation fused after the GEMM (exact same scalar code both ISAs).
enum class Activation : std::uint8_t { kNone, kTanh, kRelu, kSigmoid };

/// Batch-norm folded to a per-channel affine epilogue. Applied as
///   y = ((gamma * (v - mean)) * inv_std) + beta
/// which is the *exact* fp32 expression BatchNorm1d::infer evaluates
/// (inv_std = 1/sqrt(running_var + eps) precomputed per channel — the same
/// float value the layer recomputes per element). Folding the scale into the
/// weight matrix instead would change fp32 associativity and break
/// bit-identity; this form is tolerance-zero by construction.
struct BnFold {
  std::vector<float> gamma;
  std::vector<float> mean;
  std::vector<float> inv_std;
  std::vector<float> beta;
};

/// Elementwise tail fused after accumulation, applied in order:
/// bias add, folded batch-norm, activation. All pointers are borrowed.
struct Epilogue {
  const float* bias = nullptr;  ///< length out_dim; nullptr = no bias
  const BnFold* bn = nullptr;   ///< nullptr = no folded batch-norm
  Activation act = Activation::kNone;
};

// ---------------------------------------------------------------------------
// Pre-packed weights (load-time re-layout; storage permutation only).
// ---------------------------------------------------------------------------

/// fp32 weights re-laid into column panels of kTile outputs, contiguous over
/// k, zero-padded to the tile width: the layout the register-tiled kernels
/// stream linearly.
class PackedDense {
 public:
  static constexpr std::size_t kTile = 16;

  PackedDense() = default;

  std::size_t in_dim() const { return in_dim_; }
  std::size_t out_dim() const { return out_dim_; }
  std::size_t padded_out() const { return padded_out_; }
  std::size_t num_panels() const { return padded_out_ / kTile; }
  /// Panel base: element (k, c) of panel t lives at panel(t)[k * kTile + c]
  /// and holds weight column t * kTile + c.
  const float* panel(std::size_t t) const { return data_.data() + t * in_dim_ * kTile; }
  std::size_t bytes() const { return data_.size() * sizeof(float); }
  bool empty() const { return data_.empty(); }

 private:
  friend PackedDense pack_dense(const linalg::Mat& w);
  std::size_t in_dim_ = 0, out_dim_ = 0, padded_out_ = 0;
  std::vector<float> data_;
};

/// Packs a row-major (in_dim x out_dim) weight matrix once at load time.
PackedDense pack_dense(const linalg::Mat& w);

// ---------------------------------------------------------------------------
// Dispatched kernels. All are deterministic, batch-invariant, and
// bit-identical across ISAs and across packed/unpacked layouts.
// ---------------------------------------------------------------------------

/// y = x * W (+ epilogue) over unpacked row-major weights (in_dim x out_dim).
/// x is (m x in_dim); y is resized to (m x out_dim). x and y must not alias.
/// The training-time Dense::infer entry point; m == 1 is the GEMV case.
void dense_forward(const linalg::Mat& x, const float* w, std::size_t in_dim,
                   std::size_t out_dim, const Epilogue& ep, linalg::Mat& y);

/// Same contract over pre-packed weights — the serving hot path.
void dense_forward(const linalg::Mat& x, const PackedDense& w, const Epilogue& ep,
                   linalg::Mat& y);

/// Raw fp32 GEMM: C = A * B (accumulate=false, C resized) or C += A * B
/// (accumulate=true, C must already be A.rows x B.cols). The linalg::gemm /
/// gemm_acc backing — same zero-skip, k-ascending semantics those always had.
void gemm(const linalg::Mat& a, const linalg::Mat& b, linalg::Mat& c,
          bool accumulate);

}  // namespace noble::kernels

#endif  // NOBLE_KERNELS_KERNELS_H_
