// LayerNorm over the last dimension — the normalisation transformers use
// (part of the transformer extension the paper lists as future work).
#pragma once

#include "nn/layer.h"

namespace crisp::nn {

/// Normalises each trailing-dimension vector of an (..., D) tensor to zero
/// mean / unit variance, then applies per-feature affine gamma/beta.
class LayerNorm final : public Layer {
 public:
  LayerNorm(std::string name, std::int64_t features, float eps = 1e-5f);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor forward_eval(const Tensor& x, const KernelTable& table) const override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override { return {&gamma_, &beta_}; }

  std::int64_t features() const { return features_; }

 private:
  /// Shared normalisation math; xhat/inv_std caches are filled only when
  /// the pointers are non-null (training).
  Tensor compute_forward(const Tensor& x, Tensor* xhat, Tensor* inv_std) const;

  std::int64_t features_;
  float eps_;
  Parameter gamma_;
  Parameter beta_;
  Tensor cached_xhat_;
  Tensor cached_inv_std_;  ///< one per normalised vector
};

/// GELU activation (tanh approximation), used in transformer MLPs.
class Gelu final : public Layer {
 public:
  explicit Gelu(std::string name) : Layer(std::move(name)) {}
  Tensor forward(const Tensor& x, bool train) override;
  Tensor forward_eval(const Tensor& x, const KernelTable& table) const override;
  Tensor backward(const Tensor& grad_out) override;

 private:
  Tensor cached_input_;
};

}  // namespace crisp::nn
