// 2-D convolution lowered to GEMM (im2col), with group support for the
// depthwise convolutions of MobileNetV2.
//
// Weight layout is (S, R/groups, kh, kw), which flattens row-major into the
// paper's reshaped S x K matrix with K = (R/groups)·kh·kw — the matrix the
// CRISP masks operate on (DESIGN.md §5).
#pragma once

#include "nn/layer.h"
#include "tensor/im2col.h"
#include "tensor/rng.h"

namespace crisp::nn {

struct Conv2dSpec {
  std::int64_t in_channels = 0;
  std::int64_t out_channels = 0;
  std::int64_t kernel = 3;
  std::int64_t stride = 1;
  std::int64_t padding = 1;
  std::int64_t groups = 1;
  bool bias = false;  ///< convs feeding BatchNorm don't need one
  /// Depthwise and stem convs are typically excluded from N:M pruning
  /// (NVIDIA ASP practice); builders set this accordingly.
  bool prunable = true;
};

class Conv2d final : public Layer {
 public:
  Conv2d(std::string name, const Conv2dSpec& spec, Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor forward_eval(const Tensor& x, const KernelTable& table) const override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override;

  /// Only for groups == 1: grouped/depthwise convs lower to one GEMM per
  /// group, which a single S x K kernel cannot express.
  const Parameter* gemm_weight() const override {
    return spec_.groups == 1 ? &weight_ : nullptr;
  }

  const Conv2dSpec& spec() const { return spec_; }
  Parameter& weight() { return weight_; }
  const Parameter& weight() const { return weight_; }

  /// Output spatial size for a given input size.
  std::int64_t out_size(std::int64_t in_size) const {
    return (in_size + 2 * spec_.padding - spec_.kernel) / spec_.stride + 1;
  }

 private:
  ConvGeometry group_geometry(std::int64_t in_h, std::int64_t in_w) const;

  /// The shared math of both forwards: im2col + (packed through `kernel`,
  /// when non-null, or dense) GEMM + bias, no caching and no MAC
  /// bookkeeping.
  Tensor compute_forward(const Tensor& x,
                         const kernels::SpmmKernel* kernel) const;

  Conv2dSpec spec_;
  Parameter weight_;
  Parameter bias_;
  Tensor cached_input_;  ///< saved by forward(train=true) for backward
};

}  // namespace crisp::nn
