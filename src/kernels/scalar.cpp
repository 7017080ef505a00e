// Scalar reference kernels. These loops ARE the numeric contract: plain
// k-ascending mul/add per output element (the historical linalg::gemm i-k-j
// order, zero-skip included). Every other implementation must match them bit
// for bit.

#include <algorithm>
#include <cstring>

#include "kernels/internal.h"

namespace noble::kernels::detail {

void dense_forward_scalar(const float* x, std::size_t m, std::size_t k,
                          std::size_t ldx, const float* w, std::size_t n,
                          bool accumulate, const Epilogue& ep, float* y,
                          std::size_t ldy) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* xi = x + i * ldx;
    float* yi = y + i * ldy;
    if (!accumulate) std::memset(yi, 0, n * sizeof(float));
    for (std::size_t p = 0; p < k; ++p) {
      const float a = xi[p];
      if (a == 0.0f) continue;  // sparse inputs (RSSI vectors) are common
      const float* wp = w + p * n;
      for (std::size_t j = 0; j < n; ++j) yi[j] += a * wp[j];
    }
    apply_epilogue_row(yi, n, ep);
  }
}

void dense_forward_packed_scalar(const float* x, std::size_t m, std::size_t ldx,
                                 const PackedDense& w, const Epilogue& ep,
                                 float* y, std::size_t ldy) {
  constexpr std::size_t T = PackedDense::kTile;
  const std::size_t k = w.in_dim(), n = w.out_dim();
  for (std::size_t i = 0; i < m; ++i) {
    const float* xi = x + i * ldx;
    float* yi = y + i * ldy;
    for (std::size_t t = 0; t < w.num_panels(); ++t) {
      const float* panel = w.panel(t);
      float acc[T] = {0.0f};
      for (std::size_t p = 0; p < k; ++p) {
        const float a = xi[p];
        if (a == 0.0f) continue;
        const float* pk = panel + p * T;
        for (std::size_t c = 0; c < T; ++c) acc[c] += a * pk[c];
      }
      const std::size_t base = t * T;
      const std::size_t cols = std::min(T, n - base);
      for (std::size_t c = 0; c < cols; ++c) yi[base + c] = acc[c];
    }
    apply_epilogue_row(yi, n, ep);
  }
}

}  // namespace noble::kernels::detail
