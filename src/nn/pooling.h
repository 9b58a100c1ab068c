// Spatial pooling layers.
#pragma once

#include "nn/layer.h"

namespace crisp::nn {

class MaxPool2d final : public Layer {
 public:
  MaxPool2d(std::string name, std::int64_t kernel = 2, std::int64_t stride = 2)
      : Layer(std::move(name)), kernel_(kernel), stride_(stride) {}

  Tensor forward(const Tensor& x, bool train) override;
  Tensor forward_eval(const Tensor& x, const KernelTable& table) const override;
  Tensor backward(const Tensor& grad_out) override;

 private:
  /// Pooled output; when `argmax` is non-null it is resized (after input
  /// validation) to one entry per output element and receives the flat
  /// input index of every window winner.
  Tensor compute_forward(const Tensor& x,
                         std::vector<std::int64_t>* argmax) const;

  std::int64_t kernel_;
  std::int64_t stride_;
  Shape cached_in_shape_;
  std::vector<std::int64_t> cached_argmax_;  ///< flat input index per output
};

/// Global average pool: (B, C, H, W) -> (B, C).
class GlobalAvgPool final : public Layer {
 public:
  explicit GlobalAvgPool(std::string name) : Layer(std::move(name)) {}
  Tensor forward(const Tensor& x, bool train) override;
  Tensor forward_eval(const Tensor& x, const KernelTable& table) const override;
  Tensor backward(const Tensor& grad_out) override;

 private:
  Shape cached_in_shape_;
};

}  // namespace crisp::nn
