// Fully-connected layer: y = x·Wᵀ + b, W stored (out, in).
//
// The (out, in) layout is already the paper's reshaped S x K matrix
// (S = out features, K = in features), so CRISP masks apply directly.
#pragma once

#include "nn/layer.h"
#include "tensor/rng.h"

namespace crisp::nn {

class Linear final : public Layer {
 public:
  Linear(std::string name, std::int64_t in_features, std::int64_t out_features,
         Rng& rng, bool bias = true, bool prunable = true);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor forward_eval(const Tensor& x, const KernelTable& table) const override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override;
  const Parameter* gemm_weight() const override { return &weight_; }

  Parameter& weight() { return weight_; }
  std::int64_t in_features() const { return in_features_; }
  std::int64_t out_features() const { return out_features_; }

 private:
  /// The shared math of both forwards: packed (through `kernel`, when
  /// non-null) or dense GEMM plus bias, no caching and no MAC bookkeeping.
  Tensor compute_forward(const Tensor& x,
                         const kernels::SpmmKernel* kernel) const;

  std::int64_t in_features_;
  std::int64_t out_features_;
  bool has_bias_;
  Parameter weight_;
  Parameter bias_;
  Tensor cached_input_;
};

}  // namespace crisp::nn
