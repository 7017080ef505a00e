#include "serve/optimized.h"

#include <cmath>

#include "common/check.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/dense.h"

namespace noble::serve {

namespace {

/// Maps an activation layer to its fused epilogue form; kNone for layers
/// that aren't a recognized elementwise activation.
kernels::Activation classify_activation(const nn::Layer& layer) {
  if (dynamic_cast<const nn::Tanh*>(&layer) != nullptr) {
    return kernels::Activation::kTanh;
  }
  if (dynamic_cast<const nn::Relu*>(&layer) != nullptr) {
    return kernels::Activation::kRelu;
  }
  if (dynamic_cast<const nn::Sigmoid*>(&layer) != nullptr) {
    return kernels::Activation::kSigmoid;
  }
  return kernels::Activation::kNone;
}

/// Folds a BatchNorm1d into the per-channel affine epilogue, precomputing
/// inv_std with the exact BatchNorm1d::infer expression so the fused form is
/// tolerance-zero equal to running the layer.
kernels::BnFold fold_batchnorm(const nn::BatchNorm1d& bn, std::size_t dim) {
  kernels::BnFold fold;
  fold.gamma.assign(bn.gamma().row(0), bn.gamma().row(0) + dim);
  fold.mean.assign(bn.running_mean().row(0), bn.running_mean().row(0) + dim);
  fold.beta.assign(bn.beta().row(0), bn.beta().row(0) + dim);
  fold.inv_std.resize(dim);
  for (std::size_t j = 0; j < dim; ++j) {
    fold.inv_std[j] = 1.0f / std::sqrt(bn.running_var()(0, j) + bn.eps());
  }
  return fold;
}

}  // namespace

OptimizedNetwork::OptimizedNetwork(const nn::Sequential& net) {
  NOBLE_EXPECTS(net.layer_count() > 0);
  const std::size_t count = net.layer_count();
  for (std::size_t i = 0; i < count; ++i) {
    const auto* dense = dynamic_cast<const nn::Dense*>(&net.layer(i));
    if (dense == nullptr) {
      Step step;
      step.passthrough = &net.layer(i);
      steps_.push_back(std::move(step));
      ++stats_.passthrough_layers;
      continue;
    }
    Step step;
    const std::size_t out_dim = dense->out();
    step.bias.assign(dense->bias().row(0), dense->bias().row(0) + out_dim);
    // Absorb a directly following BatchNorm1d into the affine epilogue...
    if (i + 1 < count) {
      const auto* bn = dynamic_cast<const nn::BatchNorm1d*>(&net.layer(i + 1));
      if (bn != nullptr && bn->gamma().cols() == out_dim) {
        step.bn = fold_batchnorm(*bn, out_dim);
        ++stats_.folded_batchnorm;
        ++i;
      }
    }
    // ...then a following activation into the same kernel call.
    if (i + 1 < count) {
      const kernels::Activation act = classify_activation(net.layer(i + 1));
      if (act != kernels::Activation::kNone) {
        step.act = act;
        ++stats_.fused_activations;
        ++i;
      }
    }
    step.packed = kernels::pack_dense(dense->weights());
    stats_.packed_bytes += step.packed.bytes();
    ++stats_.fused_dense;
    steps_.push_back(std::move(step));
  }
}

linalg::Mat OptimizedNetwork::predict(const linalg::Mat& x) const {
  NOBLE_EXPECTS(!steps_.empty());
  linalg::Mat cur, next;
  for (std::size_t s = 0; s < steps_.size(); ++s) {
    const Step& step = steps_[s];
    // Step 0 reads `x` in place — every path takes separate in/out matrices,
    // so the input never needs a deep copy.
    const linalg::Mat& in = s == 0 ? x : cur;
    if (step.passthrough != nullptr) {
      step.passthrough->infer(in, next);
    } else {
      kernels::Epilogue ep;
      ep.bias = step.bias.data();
      ep.bn = step.bn.has_value() ? &*step.bn : nullptr;
      ep.act = step.act;
      kernels::dense_forward(in, step.packed, ep, next);
    }
    std::swap(cur, next);
  }
  return cur;
}

std::shared_ptr<const OptimizedNetwork> optimize_network(const nn::Sequential& net) {
  return std::make_shared<const OptimizedNetwork>(net);
}

}  // namespace noble::serve
