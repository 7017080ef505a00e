// Implementation-side seams of noble::kernels.
//
// The per-ISA GEMM bodies live in their own translation units (scalar.cpp,
// avx2.cpp — the latter compiled with -mavx2); the epilogue, which must round
// identically on every path, lives in epilogue.cpp, compiled exactly once, so
// both ISAs call literally the same machine code for the non-GEMM work.
#ifndef NOBLE_KERNELS_INTERNAL_H_
#define NOBLE_KERNELS_INTERNAL_H_

#include <cstddef>

#include "kernels/kernels.h"

namespace noble::kernels::detail {

// --- shared, compiled-once epilogue (epilogue.cpp) -------------------------

/// Applies bias add, folded batch-norm, then activation to one output row.
void apply_epilogue_row(float* y, std::size_t n, const Epilogue& ep);

// --- per-ISA GEMM bodies ---------------------------------------------------
// Rows of x/y are addressed with explicit leading dimensions (ldx/ldy) so the
// bodies are layout-agnostic. `accumulate` seeds each output element from y
// instead of zero (the linalg::gemm_acc contract); the epilogue runs either
// way (pass a default Epilogue for none).

void dense_forward_scalar(const float* x, std::size_t m, std::size_t k,
                          std::size_t ldx, const float* w, std::size_t n,
                          bool accumulate, const Epilogue& ep, float* y,
                          std::size_t ldy);
void dense_forward_packed_scalar(const float* x, std::size_t m, std::size_t ldx,
                                 const PackedDense& w, const Epilogue& ep,
                                 float* y, std::size_t ldy);

// AVX2 twins; stubs that abort when NOBLE_KERNELS_AVX2 was not compiled
// (dispatch never selects them in that build).
void dense_forward_avx2(const float* x, std::size_t m, std::size_t k,
                        std::size_t ldx, const float* w, std::size_t n,
                        bool accumulate, const Epilogue& ep, float* y,
                        std::size_t ldy);
void dense_forward_packed_avx2(const float* x, std::size_t m, std::size_t ldx,
                               const PackedDense& w, const Epilogue& ep,
                               float* y, std::size_t ldy);

}  // namespace noble::kernels::detail

#endif  // NOBLE_KERNELS_INTERNAL_H_
