// Pointwise activations: ReLU (ResNet/VGG) and ReLU6 (MobileNetV2).
#pragma once

#include "nn/layer.h"

namespace crisp::nn {

class ReLU final : public Layer {
 public:
  /// `cap` < 0 means unbounded ReLU; cap = 6 gives ReLU6.
  explicit ReLU(std::string name, float cap = -1.0f)
      : Layer(std::move(name)), cap_(cap) {}

  Tensor forward(const Tensor& x, bool train) override;
  Tensor forward_eval(const Tensor& x, const KernelTable& table) const override;
  Tensor backward(const Tensor& grad_out) override;

 private:
  float cap_;
  Tensor cached_input_;
};

/// Flattens (B, C, H, W) -> (B, C*H*W).
class Flatten final : public Layer {
 public:
  explicit Flatten(std::string name) : Layer(std::move(name)) {}
  Tensor forward(const Tensor& x, bool train) override;
  Tensor forward_eval(const Tensor& x, const KernelTable& table) const override;
  Tensor backward(const Tensor& grad_out) override;

 private:
  Shape cached_shape_;
};

}  // namespace crisp::nn
