// BatchNorm2d over (B, C, H, W) with per-channel affine parameters and
// running statistics for evaluation.
#pragma once

#include "nn/layer.h"

namespace crisp::nn {

class BatchNorm2d final : public Layer {
 public:
  BatchNorm2d(std::string name, std::int64_t channels, float momentum = 0.1f,
              float eps = 1e-5f);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor forward_eval(const Tensor& x, const KernelTable& table) const override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override;
  std::vector<NamedBuffer> buffers() override;

  std::int64_t channels() const { return channels_; }

 private:
  void check_input(const Tensor& x) const;

  std::int64_t channels_;
  float momentum_;
  float eps_;
  Parameter gamma_;
  Parameter beta_;
  Tensor running_mean_;
  Tensor running_var_;

  // Backward caches (per training forward).
  Tensor cached_xhat_;      ///< normalised input
  Tensor cached_inv_std_;   ///< 1/sqrt(var+eps) per channel
  std::int64_t cached_batch_ = 0;
  std::int64_t cached_hw_ = 0;
};

}  // namespace crisp::nn
