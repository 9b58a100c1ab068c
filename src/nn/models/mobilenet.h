// MobileNetV2-style network (Sandler et al., CVPR'18): inverted residual
// blocks with expansion, depthwise 3x3 convolution, and linear bottleneck.
#pragma once

#include "nn/models/common.h"

namespace crisp::nn {

/// Inverted residual: 1x1 expand (t>1) -> 3x3 depthwise -> 1x1 project
/// (linear), with identity skip when stride = 1 and channels match.
/// Depthwise kernels are excluded from N:M pruning (9-element reduction per
/// group — NVIDIA ASP makes the same exclusion).
class InvertedResidual final : public Layer {
 public:
  InvertedResidual(std::string name, std::int64_t in_channels,
                   std::int64_t out_channels, std::int64_t stride,
                   std::int64_t expand_ratio, Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor forward_eval(const Tensor& x, const KernelTable& table) const override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override { return main_.parameters(); }
  std::vector<NamedBuffer> buffers() override { return main_.buffers(); }
  std::vector<Layer*> children() override { return {&main_}; }
  std::int64_t last_dense_macs() const override {
    return main_.last_dense_macs();
  }
  std::int64_t last_sparse_macs() const override {
    return main_.last_sparse_macs();
  }

  std::int64_t out_channels() const { return out_channels_; }

 private:
  std::int64_t out_channels_;
  bool use_residual_;
  Sequential main_;
};

}  // namespace crisp::nn
