// Kernel-layer parity suites: the bit-identity contract of noble::kernels.
//
// Scalar is the reference. Every other way of computing the same op — AVX2
// dispatch, pre-packed weight layouts, fused epilogues, whole optimized
// plans — must reproduce the reference *bitwise*, across ragged K/N tails,
// batch sizes 1..17 (and 64 at two full-size shapes), zero-row inputs and
// every epilogue combination. The
// suites compare raw storage with memcmp, so a single flipped bit anywhere
// fails loudly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <optional>
#include <vector>

#include "common/fpmath.h"
#include "common/rng.h"
#include "kernels/kernels.h"
#include "linalg/matrix.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/dense.h"
#include "nn/network.h"
#include "serve/optimized.h"

namespace noble::kernels {
namespace {

using linalg::Mat;

// Restores startup dispatch resolution however a test exits.
struct IsaGuard {
  ~IsaGuard() { force_isa(std::nullopt); }
};

::testing::AssertionResult bitwise_equal(const Mat& a, const Mat& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure()
           << "shape mismatch: " << a.rows() << "x" << a.cols() << " vs "
           << b.rows() << "x" << b.cols();
  }
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0) {
    return ::testing::AssertionSuccess();
  }
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (std::memcmp(&a.row(i)[j], &b.row(i)[j], sizeof(float)) != 0) {
        return ::testing::AssertionFailure()
               << "first bit difference at (" << i << "," << j
               << "): " << a(i, j) << " vs " << b(i, j);
      }
    }
  }
  return ::testing::AssertionFailure() << "memcmp differs but elements match?";
}

/// Random matrix with controllable sparsity; row `zero_row` (if in range) is
/// all zeros to exercise the zero-skip and zero-quantization paths.
Mat random_mat(std::size_t rows, std::size_t cols, Rng& rng,
               double sparsity = 0.0, std::size_t zero_row = SIZE_MAX) {
  Mat m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      if (i == zero_row) continue;
      if (sparsity > 0.0 && rng.bernoulli(sparsity)) continue;
      m(i, j) = static_cast<float>(rng.uniform(-1.5, 1.5));
    }
  }
  return m;
}

BnFold random_bn_fold(std::size_t n, Rng& rng) {
  BnFold bn;
  bn.gamma.resize(n);
  bn.mean.resize(n);
  bn.inv_std.resize(n);
  bn.beta.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    bn.gamma[j] = static_cast<float>(rng.uniform(0.5, 1.5));
    bn.mean[j] = static_cast<float>(rng.uniform(-0.5, 0.5));
    bn.inv_std[j] =
        1.0f / std::sqrt(static_cast<float>(rng.uniform(0.1, 2.0)) + 1e-5f);
    bn.beta[j] = static_cast<float>(rng.uniform(-0.5, 0.5));
  }
  return bn;
}

constexpr Activation kActivations[] = {Activation::kNone, Activation::kTanh,
                                       Activation::kRelu, Activation::kSigmoid};

const std::size_t kShapesK[] = {1, 3, 8, 31, 33, 128};
const std::size_t kShapesN[] = {1, 5, 8, 16, 17, 127};
const std::size_t kBatches[] = {1, 2, 3, 5, 8, 13, 16, 17};

/// One (k x n) weight shape and the batch sizes it is swept at.
struct ParityCase {
  std::size_t k, n;
  std::vector<std::size_t> batches;
};

/// What the scalar-vs-AVX2 parity suites sweep: every kShapesK x kShapesN
/// pair at every kBatches size, plus two full-size shapes at batches 1, 8
/// and 64 — one near the serving model's hidden layers, one ragged in every
/// tail.
std::vector<ParityCase> parity_cases() {
  std::vector<ParityCase> cases;
  for (const std::size_t k : kShapesK) {
    for (const std::size_t n : kShapesN) {
      cases.push_back({k, n, {std::begin(kBatches), std::end(kBatches)}});
    }
  }
  cases.push_back({256, 512, {1, 8, 64}});
  cases.push_back({129, 131, {1, 8, 64}});
  return cases;
}

// ---------------------------------------------------------------------------
// Dispatch control.
// ---------------------------------------------------------------------------

TEST(KernelDispatch, ParseIsaMapsKnobValues) {
  EXPECT_EQ(parse_isa("scalar"), std::optional<Isa>(Isa::kScalar));
  EXPECT_EQ(parse_isa("avx2"), std::optional<Isa>(Isa::kAvx2));
  EXPECT_EQ(parse_isa("auto"), std::nullopt);
  EXPECT_EQ(parse_isa(""), std::nullopt);
  EXPECT_EQ(parse_isa("sse9"), std::nullopt);  // unrecognized behaves as auto
  EXPECT_STREQ(isa_name(Isa::kScalar), "scalar");
  EXPECT_STREQ(isa_name(Isa::kAvx2), "avx2");
}

TEST(KernelDispatch, ForceIsaOverridesAndRestores) {
  IsaGuard guard;
  force_isa(Isa::kScalar);
  EXPECT_EQ(active_isa(), Isa::kScalar);
  if (avx2_supported()) {
    force_isa(Isa::kAvx2);
    EXPECT_EQ(active_isa(), Isa::kAvx2);
  } else {
    // Requests for unavailable ISAs clamp to scalar instead of faulting.
    force_isa(Isa::kAvx2);
    EXPECT_EQ(active_isa(), Isa::kScalar);
  }
}

TEST(KernelDispatch, Avx2SupportImpliesAvx2Compiled) {
  if (avx2_supported()) {
    EXPECT_TRUE(avx2_compiled());
  }
}

// ---------------------------------------------------------------------------
// Packing is a pure storage permutation.
// ---------------------------------------------------------------------------

TEST(KernelPacking, PackedDenseLayoutRoundTrips) {
  Rng rng(42);
  for (const std::size_t n : kShapesN) {
    const Mat w = random_mat(33, n, rng);
    const std::uint64_t before = pack_operations();
    const PackedDense packed = pack_dense(w);
    EXPECT_EQ(pack_operations(), before + 1);
    EXPECT_EQ(packed.in_dim(), w.rows());
    EXPECT_EQ(packed.out_dim(), w.cols());
    EXPECT_EQ(packed.padded_out() % PackedDense::kTile, 0u);
    for (std::size_t t = 0; t < packed.num_panels(); ++t) {
      const float* panel = packed.panel(t);
      for (std::size_t k = 0; k < w.rows(); ++k) {
        for (std::size_t c = 0; c < PackedDense::kTile; ++c) {
          const std::size_t j = t * PackedDense::kTile + c;
          const float expected = j < n ? w(k, j) : 0.0f;  // zero-padded tail
          EXPECT_EQ(panel[k * PackedDense::kTile + c], expected);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// fp32 parity: scalar vs dispatched, packed vs unpacked, odd shapes,
// all epilogues, zero rows.
// ---------------------------------------------------------------------------

// Packed vs unpacked is checked on every host; without AVX2 the test then
// reports itself skipped, since the scalar-vs-AVX2 half could not run.
TEST(KernelParityFp32, ScalarVsAvx2BitIdenticalAcrossShapesAndEpilogues) {
  const bool avx2 = avx2_supported();
  IsaGuard guard;
  Rng rng(7);
  std::size_t combo = 0;
  for (const auto& [k, n, batches] : parity_cases()) {
    const Mat w = random_mat(k, n, rng);
    std::vector<float> bias(n);
    for (auto& b : bias) b = static_cast<float>(rng.uniform(-0.5, 0.5));
    const BnFold bn = random_bn_fold(n, rng);
    for (const std::size_t m : batches) {
      // Cycle epilogue shape with the combo index to bound runtime while
      // still covering every (activation x bn x bias) form many times.
      Epilogue ep;
      ep.act = kActivations[combo % 4];
      ep.bias = combo % 2 == 0 ? bias.data() : nullptr;
      ep.bn = combo % 3 == 0 ? &bn : nullptr;
      ++combo;
      const Mat x = random_mat(m, k, rng, /*sparsity=*/0.3,
                               /*zero_row=*/m >= 2 ? 1 : SIZE_MAX);
      Mat y_scalar, y_avx2, yp_scalar, yp_avx2;
      const PackedDense packed = pack_dense(w);
      force_isa(Isa::kScalar);
      dense_forward(x, w.data(), k, n, ep, y_scalar);
      dense_forward(x, packed, ep, yp_scalar);
      EXPECT_TRUE(bitwise_equal(y_scalar, yp_scalar))
          << "packed-vs-unpacked m=" << m << " k=" << k << " n=" << n;
      if (!avx2) continue;
      force_isa(Isa::kAvx2);
      dense_forward(x, w.data(), k, n, ep, y_avx2);
      dense_forward(x, packed, ep, yp_avx2);
      EXPECT_TRUE(bitwise_equal(y_scalar, y_avx2))
          << "unpacked m=" << m << " k=" << k << " n=" << n;
      EXPECT_TRUE(bitwise_equal(yp_scalar, yp_avx2))
          << "packed m=" << m << " k=" << k << " n=" << n;
    }
  }
  if (!avx2) GTEST_SKIP() << "AVX2 unavailable on this host";
}

TEST(KernelParityFp32, ScalarKernelMatchesNaiveReferenceLoop) {
  IsaGuard guard;
  force_isa(Isa::kScalar);
  Rng rng(11);
  const std::size_t m = 5, k = 33, n = 17;
  const Mat w = random_mat(k, n, rng);
  const Mat x = random_mat(m, k, rng, 0.3, /*zero_row=*/2);
  std::vector<float> bias(n);
  for (auto& b : bias) b = static_cast<float>(rng.uniform(-0.5, 0.5));
  Epilogue ep;
  ep.bias = bias.data();
  Mat y;
  dense_forward(x, w.data(), k, n, ep, y);
  // The historical Dense::infer computation: i-k-j zero-skip GEMM, then a
  // bias add — written out longhand.
  Mat ref(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      const float a = x(i, p);
      if (a == 0.0f) continue;
      for (std::size_t j = 0; j < n; ++j) ref(i, j) += a * w(p, j);
    }
    for (std::size_t j = 0; j < n; ++j) ref(i, j) += bias[j];
  }
  EXPECT_TRUE(bitwise_equal(y, ref));
}

TEST(KernelParityFp32, GemmAccumulateMatchesAcrossIsas) {
  if (!avx2_supported()) GTEST_SKIP() << "AVX2 unavailable on this host";
  IsaGuard guard;
  Rng rng(13);
  for (const std::size_t n : {1u, 8u, 17u, 31u}) {
    const Mat a = random_mat(7, 33, rng, 0.3);
    const Mat b = random_mat(33, n, rng);
    const Mat seed = random_mat(7, n, rng);
    Mat c_scalar = seed, c_avx2 = seed;
    force_isa(Isa::kScalar);
    gemm(a, b, c_scalar, /*accumulate=*/true);
    force_isa(Isa::kAvx2);
    gemm(a, b, c_avx2, /*accumulate=*/true);
    EXPECT_TRUE(bitwise_equal(c_scalar, c_avx2)) << "n=" << n;
  }
}

TEST(KernelParityFp32, ZeroRowProducesExactlyTheEpilogueOfZero) {
  IsaGuard guard;
  Rng rng(17);
  const std::size_t k = 31, n = 17;
  const Mat w = random_mat(k, n, rng);
  std::vector<float> bias(n);
  for (auto& b : bias) b = static_cast<float>(rng.uniform(-0.5, 0.5));
  Epilogue ep;
  ep.bias = bias.data();
  Mat x(3, k);  // all-zero batch
  for (const Isa isa : {Isa::kScalar, Isa::kAvx2}) {
    if (isa == Isa::kAvx2 && !avx2_supported()) continue;
    force_isa(isa);
    Mat y;
    dense_forward(x, w.data(), k, n, ep, y);
    for (std::size_t i = 0; i < 3; ++i) {
      for (std::size_t j = 0; j < n; ++j) EXPECT_EQ(y(i, j), bias[j]);
    }
  }
}

// ---------------------------------------------------------------------------
// Load-time optimization: BN folding and activation fusion are exact.
// ---------------------------------------------------------------------------

/// Builds the serving-shaped network (Dense -> BN -> Tanh stacks) and runs a
/// few training steps so the batch-norm running statistics are non-trivial.
nn::Sequential trained_bn_network(std::size_t in_dim, std::size_t hidden,
                                  std::size_t out_dim, Rng& rng) {
  nn::Sequential net;
  net.emplace<nn::Dense>(in_dim, hidden, rng);
  net.emplace<nn::BatchNorm1d>(hidden);
  net.emplace<nn::Tanh>();
  net.emplace<nn::Dense>(hidden, hidden, rng);
  net.emplace<nn::BatchNorm1d>(hidden);
  net.emplace<nn::Relu>();
  net.emplace<nn::Dense>(hidden, out_dim, rng);
  for (int step = 0; step < 4; ++step) {
    const Mat batch = random_mat(16, in_dim, rng, 0.2);
    net.forward(batch, /*training=*/true);  // updates BN running stats
  }
  return net;
}

TEST(OptimizedNetworkSuite, Fp32PlanBitIdenticalToSequentialPredict) {
  IsaGuard guard;
  Rng rng(29);
  nn::Sequential net = trained_bn_network(24, 32, 19, rng);
  const serve::OptimizedNetwork plan(net);
  EXPECT_EQ(plan.stats().fused_dense, 3u);
  EXPECT_EQ(plan.stats().folded_batchnorm, 2u);
  EXPECT_EQ(plan.stats().fused_activations, 2u);
  EXPECT_EQ(plan.stats().passthrough_layers, 0u);
  EXPECT_GT(plan.stats().packed_bytes, 0u);
  for (std::size_t m = 1; m <= 17; ++m) {
    const Mat x = random_mat(m, 24, rng, 0.3, /*zero_row=*/m >= 2 ? 0 : SIZE_MAX);
    for (const Isa isa : {Isa::kScalar, Isa::kAvx2}) {
      if (isa == Isa::kAvx2 && !avx2_supported()) continue;
      force_isa(isa);
      // net.predict and the plan both dispatch to the same ISA; comparing
      // per-ISA isolates exactly the fold/fuse/pack transformations.
      const Mat via_net = net.predict(x);
      const Mat via_plan = plan.predict(x);
      EXPECT_TRUE(bitwise_equal(via_net, via_plan))
          << "m=" << m << " isa=" << isa_name(isa);
    }
  }
}

TEST(OptimizedNetworkSuite, Fp32PlanBitIdenticalAcrossIsas) {
  if (!avx2_supported()) GTEST_SKIP() << "AVX2 unavailable on this host";
  IsaGuard guard;
  Rng rng(31);
  nn::Sequential net = trained_bn_network(24, 32, 19, rng);
  const serve::OptimizedNetwork plan(net);
  for (const std::size_t m : kBatches) {
    const Mat x = random_mat(m, 24, rng, 0.3);
    force_isa(Isa::kScalar);
    const Mat y_scalar = plan.predict(x);
    force_isa(Isa::kAvx2);
    const Mat y_avx2 = plan.predict(x);
    EXPECT_TRUE(bitwise_equal(y_scalar, y_avx2)) << "m=" << m;
  }
}

TEST(OptimizedNetworkSuite, DenseActivationFusionWithoutBnIsExact) {
  IsaGuard guard;
  Rng rng(41);
  nn::Sequential net;
  net.emplace<nn::Dense>(12, 20, rng);
  net.emplace<nn::Sigmoid>();
  net.emplace<nn::Dense>(20, 7, rng);
  net.emplace<nn::Tanh>();
  const serve::OptimizedNetwork plan(net);
  EXPECT_EQ(plan.stats().fused_dense, 2u);
  EXPECT_EQ(plan.stats().fused_activations, 2u);
  EXPECT_EQ(plan.stats().folded_batchnorm, 0u);
  for (const std::size_t m : kBatches) {
    const Mat x = random_mat(m, 12, rng, 0.2);
    EXPECT_TRUE(bitwise_equal(net.predict(x), plan.predict(x))) << "m=" << m;
  }
}

TEST(OptimizedNetworkSuite, UnrecognizedLeadingBatchNormPassesThrough) {
  IsaGuard guard;
  Rng rng(43);
  nn::Sequential net;
  net.emplace<nn::BatchNorm1d>(12);  // no preceding Dense: must pass through
  net.emplace<nn::Dense>(12, 5, rng);
  for (int step = 0; step < 3; ++step) {
    net.forward(random_mat(8, 12, rng), /*training=*/true);
  }
  const serve::OptimizedNetwork plan(net);
  EXPECT_EQ(plan.stats().passthrough_layers, 1u);
  EXPECT_EQ(plan.stats().fused_dense, 1u);
  const Mat x = random_mat(6, 12, rng);
  EXPECT_TRUE(bitwise_equal(net.predict(x), plan.predict(x)));
}

// ---------------------------------------------------------------------------
// stable_round: the named replacement for the volatile-float SLP workaround.
// ---------------------------------------------------------------------------

TEST(StableRound, NarrowsDoubleAccumulatorsToFloatPrecision) {
  // Recreate the paired-accumulator shape from TrackingSession::displacement
  // — exactly the pattern GCC 12's SLP vectorizer miscompiled when the casts
  // were written inline (it deleted the double->float->double round-trip).
  double sum_x = 0.0, sum_y = 0.0;
  for (int i = 0; i < 10; ++i) {
    sum_x += 0.1;
    sum_y += 0.2;
  }
  const double rx = noble::detail::stable_round(sum_x);
  const double ry = noble::detail::stable_round(sum_y);
  // If the narrowing were elided the results would keep full double
  // precision and stay equal to the raw sums.
  EXPECT_NE(rx, sum_x);
  EXPECT_NE(ry, sum_y);
  volatile float fx = static_cast<float>(sum_x);
  volatile float fy = static_cast<float>(sum_y);
  EXPECT_EQ(rx, static_cast<double>(fx));
  EXPECT_EQ(ry, static_cast<double>(fy));
  // Values exactly representable in float round-trip unchanged.
  EXPECT_EQ(noble::detail::stable_round(0.5), 0.5);
  EXPECT_EQ(noble::detail::stable_round(-3.0), -3.0);
  EXPECT_EQ(noble::detail::stable_round(0.0), 0.0);
}

}  // namespace
}  // namespace noble::kernels
