// AVX2 kernels. This translation unit alone is compiled with -mavx2 (and
// deliberately NOT -mfma: a fused multiply-add rounds once where the scalar
// reference rounds twice, which would break bit-identity — every step here is
// an explicit _mm256_mul_ps followed by _mm256_add_ps).
//
// Vectorization runs across the *output* dimension j: eight independent
// output elements per ymm register, each still accumulating its own k terms
// in strictly ascending order. That makes every output element's operation
// sequence identical to the scalar reference, so the results are bit-equal at
// every batch size.
//
// When the toolchain cannot build AVX2 (NOBLE_KERNELS_AVX2 undefined) the
// bodies collapse to aborting stubs; dispatch never selects them then.

#include "kernels/internal.h"

#if defined(NOBLE_KERNELS_AVX2)

#include <immintrin.h>

#include <cstring>

namespace noble::kernels::detail {

void dense_forward_avx2(const float* x, std::size_t m, std::size_t k,
                        std::size_t ldx, const float* w, std::size_t n,
                        bool accumulate, const Epilogue& ep, float* y,
                        std::size_t ldy) {
  const std::size_t n16 = n & ~std::size_t{15};
  for (std::size_t i = 0; i < m; ++i) {
    const float* xi = x + i * ldx;
    float* yi = y + i * ldy;
    for (std::size_t jb = 0; jb < n16; jb += 16) {
      __m256 acc0, acc1;
      if (accumulate) {
        acc0 = _mm256_loadu_ps(yi + jb);
        acc1 = _mm256_loadu_ps(yi + jb + 8);
      } else {
        acc0 = _mm256_setzero_ps();
        acc1 = _mm256_setzero_ps();
      }
      for (std::size_t p = 0; p < k; ++p) {
        const float a = xi[p];
        if (a == 0.0f) continue;  // same zero-skip as the scalar reference
        const __m256 va = _mm256_set1_ps(a);
        const float* wp = w + p * n + jb;
        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(va, _mm256_loadu_ps(wp)));
        acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(va, _mm256_loadu_ps(wp + 8)));
      }
      _mm256_storeu_ps(yi + jb, acc0);
      _mm256_storeu_ps(yi + jb + 8, acc1);
    }
    // Ragged n tail: per-element k-ascending mul/add, exactly the reference
    // order (-ffp-contract=off keeps the compiler from fusing these).
    for (std::size_t j = n16; j < n; ++j) {
      float s = accumulate ? yi[j] : 0.0f;
      for (std::size_t p = 0; p < k; ++p) {
        const float a = xi[p];
        if (a == 0.0f) continue;
        s += a * w[p * n + j];
      }
      yi[j] = s;
    }
    apply_epilogue_row(yi, n, ep);
  }
}

void dense_forward_packed_avx2(const float* x, std::size_t m, std::size_t ldx,
                               const PackedDense& w, const Epilogue& ep,
                               float* y, std::size_t ldy) {
  constexpr std::size_t T = PackedDense::kTile;
  const std::size_t k = w.in_dim(), n = w.out_dim();
  for (std::size_t i = 0; i < m; ++i) {
    const float* xi = x + i * ldx;
    float* yi = y + i * ldy;
    for (std::size_t t = 0; t < w.num_panels(); ++t) {
      const float* panel = w.panel(t);
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      for (std::size_t p = 0; p < k; ++p) {
        const float a = xi[p];
        if (a == 0.0f) continue;
        const __m256 va = _mm256_set1_ps(a);
        const float* pk = panel + p * T;
        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(va, _mm256_loadu_ps(pk)));
        acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(va, _mm256_loadu_ps(pk + 8)));
      }
      const std::size_t base = t * T;
      if (n - base >= T) {
        _mm256_storeu_ps(yi + base, acc0);
        _mm256_storeu_ps(yi + base + 8, acc1);
      } else {  // ragged final panel: spill the tile, copy the live columns
        alignas(32) float tmp[T];
        _mm256_store_ps(tmp, acc0);
        _mm256_store_ps(tmp + 8, acc1);
        std::memcpy(yi + base, tmp, (n - base) * sizeof(float));
      }
    }
    apply_epilogue_row(yi, n, ep);
  }
}

}  // namespace noble::kernels::detail

namespace noble::kernels {
bool avx2_compiled() { return true; }
}  // namespace noble::kernels

#else  // !NOBLE_KERNELS_AVX2

#include <cstdlib>

namespace noble::kernels::detail {

// Dispatch guarantees these are unreachable when AVX2 wasn't compiled.
void dense_forward_avx2(const float*, std::size_t, std::size_t, std::size_t,
                        const float*, std::size_t, bool, const Epilogue&,
                        float*, std::size_t) {
  std::abort();
}
void dense_forward_packed_avx2(const float*, std::size_t, std::size_t,
                               const PackedDense&, const Epilogue&, float*,
                               std::size_t) {
  std::abort();
}

}  // namespace noble::kernels::detail

namespace noble::kernels {
bool avx2_compiled() { return false; }
}  // namespace noble::kernels

#endif  // NOBLE_KERNELS_AVX2
