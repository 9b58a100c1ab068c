#include "nn/activations.h"

#include "kernels/parallel_for.h"

namespace crisp::nn {

Tensor ReLU::forward_eval(const Tensor& x, const KernelTable&) const {
  Tensor y = x;
  if (cap_ < 0.0f) {
    y.clamp_min_(0.0f);
  } else {
    for (std::int64_t i = 0; i < y.numel(); ++i)
      y[i] = std::min(std::max(y[i], 0.0f), cap_);
  }
  return y;
}

Tensor ReLU::forward(const Tensor& x, bool train) {
  Tensor y = forward_eval(x, {});
  if (train) cached_input_ = x;
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  CRISP_CHECK(!cached_input_.empty(),
              name() << ": backward without cached forward");
  CRISP_CHECK(grad_out.same_shape(cached_input_), name() << ": shape mismatch");
  Tensor grad_in(grad_out.shape());
  // Pure elementwise gate: disjoint writes, trivially thread-invariant.
  kernels::parallel_for(
      grad_out.numel(),
      [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          const float v = cached_input_[i];
          const bool pass = cap_ < 0.0f ? (v > 0.0f) : (v > 0.0f && v < cap_);
          grad_in[i] = pass ? grad_out[i] : 0.0f;
        }
      },
      kernels::rows_grain(1));
  return grad_in;
}

Tensor Flatten::forward(const Tensor& x, bool train) {
  if (train) cached_shape_ = x.shape();
  return forward_eval(x, {});
}

Tensor Flatten::forward_eval(const Tensor& x, const KernelTable&) const {
  CRISP_CHECK(x.dim() >= 2, "Flatten expects batch dimension first");
  return x.reshaped({x.size(0), -1});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  CRISP_CHECK(!cached_shape_.empty(), name() << ": backward without forward");
  return grad_out.reshaped(cached_shape_);
}

}  // namespace crisp::nn
