// ResNet-50-style network: [3,4,6,3] bottleneck blocks, expansion 4,
// CIFAR-style 3x3 stem (appropriate for small inputs).
#pragma once

#include "nn/activations.h"
#include "nn/models/common.h"

namespace crisp::nn {

/// The 1x1 -> 3x3 -> 1x1 bottleneck residual block of ResNet-50 (He et al.,
/// CVPR'16) with projection shortcut when shape changes.
class Bottleneck final : public Layer {
 public:
  Bottleneck(std::string name, std::int64_t in_channels, std::int64_t planes,
             std::int64_t stride, Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor forward_eval(const Tensor& x, const KernelTable& table) const override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override;
  std::vector<NamedBuffer> buffers() override;
  std::vector<Layer*> children() override;
  std::int64_t last_dense_macs() const override;
  std::int64_t last_sparse_macs() const override;

  static constexpr std::int64_t kExpansion = 4;
  std::int64_t out_channels() const { return out_channels_; }

 private:
  std::int64_t out_channels_;
  bool has_projection_;
  Sequential main_;
  Sequential projection_;  ///< empty when identity shortcut
  ReLU relu_out_;
  Tensor cached_input_;    ///< needed when the shortcut is the identity
};

}  // namespace crisp::nn
