// Runtime dispatch and load-time weight packing.
//
// The active ISA is resolved once, on first use: the NOBLE_KERNEL env knob
// wins if set ("scalar" / "avx2" / "auto"), otherwise CPUID detection picks
// the widest implementation compiled into the binary. force_isa() (tests,
// benches) overrides the resolution at any point; an avx2 request on
// hardware without it clamps to scalar so dispatch can never select an
// implementation that would fault.

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "common/check.h"
#include "kernels/internal.h"
#include "kernels/kernels.h"

namespace noble::kernels {

namespace {

std::atomic<std::uint64_t> g_pack_ops{0};

// -1: no override (use startup resolution); otherwise static_cast<int>(Isa).
std::atomic<int> g_override{-1};

Isa clamp_to_hardware(Isa isa) {
  return isa == Isa::kAvx2 && !avx2_supported() ? Isa::kScalar : isa;
}

Isa resolve_startup() {
  if (const char* env = std::getenv("NOBLE_KERNEL")) {
    if (const auto parsed = parse_isa(env)) return clamp_to_hardware(*parsed);
  }
  return avx2_supported() ? Isa::kAvx2 : Isa::kScalar;
}

Isa startup_isa() {
  static const Isa isa = resolve_startup();
  return isa;
}

}  // namespace

bool avx2_supported() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return avx2_compiled() && __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

Isa active_isa() {
  const int forced = g_override.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Isa>(forced);
  return startup_isa();
}

const char* isa_name(Isa isa) { return isa == Isa::kAvx2 ? "avx2" : "scalar"; }

void force_isa(std::optional<Isa> isa) {
  g_override.store(isa ? static_cast<int>(clamp_to_hardware(*isa)) : -1,
                   std::memory_order_relaxed);
}

std::optional<Isa> parse_isa(std::string_view value) {
  if (value == "scalar") return Isa::kScalar;
  if (value == "avx2") return Isa::kAvx2;
  return std::nullopt;  // "auto", "", or anything unrecognized: detect
}

void apply_env_override() {
  const char* env = std::getenv("NOBLE_KERNEL");
  if (env == nullptr) return;
  if (const auto parsed = parse_isa(env)) {
    force_isa(*parsed);
  } else {
    force_isa(std::nullopt);
  }
}

std::uint64_t pack_operations() {
  return g_pack_ops.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Load-time packing (pure storage permutation — ISA-independent).
// ---------------------------------------------------------------------------

PackedDense pack_dense(const linalg::Mat& w) {
  constexpr std::size_t T = PackedDense::kTile;
  PackedDense p;
  p.in_dim_ = w.rows();
  p.out_dim_ = w.cols();
  p.padded_out_ = (w.cols() + T - 1) / T * T;
  p.data_.assign(p.in_dim_ * p.padded_out_, 0.0f);
  for (std::size_t t = 0; t * T < p.out_dim_; ++t) {
    float* panel = p.data_.data() + t * p.in_dim_ * T;
    const std::size_t base = t * T;
    const std::size_t cols = std::min(T, p.out_dim_ - base);
    for (std::size_t k = 0; k < p.in_dim_; ++k) {
      const float* wk = w.row(k);
      for (std::size_t c = 0; c < cols; ++c) panel[k * T + c] = wk[base + c];
    }
  }
  g_pack_ops.fetch_add(1, std::memory_order_relaxed);
  return p;
}

// ---------------------------------------------------------------------------
// Dispatched entry points.
// ---------------------------------------------------------------------------

void dense_forward(const linalg::Mat& x, const float* w, std::size_t in_dim,
                   std::size_t out_dim, const Epilogue& ep, linalg::Mat& y) {
  NOBLE_EXPECTS(x.cols() == in_dim);
  y.resize(x.rows(), out_dim);
  if (active_isa() == Isa::kAvx2) {
    detail::dense_forward_avx2(x.data(), x.rows(), in_dim, x.cols(), w, out_dim,
                               /*accumulate=*/false, ep, y.data(), y.cols());
  } else {
    detail::dense_forward_scalar(x.data(), x.rows(), in_dim, x.cols(), w,
                                 out_dim, /*accumulate=*/false, ep, y.data(),
                                 y.cols());
  }
}

void dense_forward(const linalg::Mat& x, const PackedDense& w,
                   const Epilogue& ep, linalg::Mat& y) {
  NOBLE_EXPECTS(x.cols() == w.in_dim());
  y.resize(x.rows(), w.out_dim());
  if (active_isa() == Isa::kAvx2) {
    detail::dense_forward_packed_avx2(x.data(), x.rows(), x.cols(), w, ep,
                                      y.data(), y.cols());
  } else {
    detail::dense_forward_packed_scalar(x.data(), x.rows(), x.cols(), w, ep,
                                        y.data(), y.cols());
  }
}

void gemm(const linalg::Mat& a, const linalg::Mat& b, linalg::Mat& c,
          bool accumulate) {
  NOBLE_EXPECTS(a.cols() == b.rows());
  if (!accumulate) c.resize(a.rows(), b.cols());
  NOBLE_EXPECTS(c.rows() == a.rows() && c.cols() == b.cols());
  const Epilogue ep;
  if (active_isa() == Isa::kAvx2) {
    detail::dense_forward_avx2(a.data(), a.rows(), a.cols(), a.cols(), b.data(),
                               b.cols(), accumulate, ep, c.data(), c.cols());
  } else {
    detail::dense_forward_scalar(a.data(), a.rows(), a.cols(), a.cols(),
                                 b.data(), b.cols(), accumulate, ep, c.data(),
                                 c.cols());
  }
}

}  // namespace noble::kernels
