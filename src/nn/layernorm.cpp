#include "nn/layernorm.h"

#include <cmath>
#include <numbers>

#include "kernels/parallel_for.h"
#include "kernels/reduce.h"

namespace crisp::nn {

LayerNorm::LayerNorm(std::string name, std::int64_t features, float eps)
    : Layer(std::move(name)), features_(features), eps_(eps) {
  gamma_.name = this->name() + ".gamma";
  gamma_.value = Tensor::ones({features});
  beta_.name = this->name() + ".beta";
  beta_.value = Tensor::zeros({features});
}

Tensor LayerNorm::compute_forward(const Tensor& x, Tensor* xhat,
                                  Tensor* inv_std_out) const {
  CRISP_CHECK(x.dim() >= 1 && x.size(-1) == features_,
              name() << ": last dimension must be " << features_ << ", got "
                     << shape_to_string(x.shape()));
  const std::int64_t rows = x.numel() / features_;
  Tensor y(x.shape());
  // Each row normalises independently and owns its slice of y / xhat /
  // inv_std, so the row loop threads with disjoint writes.
  kernels::parallel_for(
      rows,
      [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
          const float* in = x.data() + r * features_;
          float* out = y.data() + r * features_;
          double sum = 0.0, sq = 0.0;
          for (std::int64_t i = 0; i < features_; ++i) {
            sum += in[i];
            sq += static_cast<double>(in[i]) * in[i];
          }
          const float mean =
              static_cast<float>(sum / static_cast<double>(features_));
          const float var =
              static_cast<float>(sq / static_cast<double>(features_)) -
              mean * mean;
          const float inv_std = 1.0f / std::sqrt(var + eps_);
          for (std::int64_t i = 0; i < features_; ++i) {
            const float xh = (in[i] - mean) * inv_std;
            out[i] = gamma_.value[i] * xh + beta_.value[i];
            if (xhat != nullptr) (*xhat)[r * features_ + i] = xh;
          }
          if (inv_std_out != nullptr) (*inv_std_out)[r] = inv_std;
        }
      },
      kernels::rows_grain(3 * features_));
  return y;
}

Tensor LayerNorm::forward(const Tensor& x, bool train) {
  if (!train) return compute_forward(x, nullptr, nullptr);
  cached_xhat_ = Tensor(x.shape());
  cached_inv_std_ = Tensor({x.numel() / features_});
  return compute_forward(x, &cached_xhat_, &cached_inv_std_);
}

Tensor LayerNorm::forward_eval(const Tensor& x, const KernelTable&) const {
  return compute_forward(x, nullptr, nullptr);
}

Tensor LayerNorm::backward(const Tensor& grad_out) {
  CRISP_CHECK(!cached_xhat_.empty(), name() << ": backward without forward");
  CRISP_CHECK(grad_out.same_shape(cached_xhat_), name() << ": shape mismatch");
  const std::int64_t rows = grad_out.numel() / features_;
  Tensor grad_in(grad_out.shape());
  const float inv_d = 1.0f / static_cast<float>(features_);
  // grad_in rows are write-disjoint, but every row contributes to the same
  // gamma/beta gradients — the row loop therefore threads through
  // parallel_accumulate with a fused per-chunk [dgamma | dbeta] buffer
  // merged in fixed tree order, so parameter gradients stay bit-identical
  // at any thread count.
  Tensor fused({2 * features_});
  kernels::parallel_accumulate(
      rows, kernels::rows_grain(4 * features_), 2 * features_,
      [&](float* acc, std::int64_t r0, std::int64_t r1) {
        float* dgamma = acc;
        float* dbeta = acc + features_;
        for (std::int64_t r = r0; r < r1; ++r) {
          const float* dy = grad_out.data() + r * features_;
          const float* xh = cached_xhat_.data() + r * features_;
          float* dx = grad_in.data() + r * features_;
          double sum_dxhat = 0.0, sum_dxhat_xhat = 0.0;
          for (std::int64_t i = 0; i < features_; ++i) {
            const float dxhat = dy[i] * gamma_.value[i];
            sum_dxhat += dxhat;
            sum_dxhat_xhat += static_cast<double>(dxhat) * xh[i];
            dgamma[i] += dy[i] * xh[i];
            dbeta[i] += dy[i];
          }
          const float inv_std = cached_inv_std_[r];
          const float mean_dxhat = static_cast<float>(sum_dxhat) * inv_d;
          const float mean_dxhat_xhat =
              static_cast<float>(sum_dxhat_xhat) * inv_d;
          for (std::int64_t i = 0; i < features_; ++i) {
            const float dxhat = dy[i] * gamma_.value[i];
            dx[i] = inv_std * (dxhat - mean_dxhat - xh[i] * mean_dxhat_xhat);
          }
        }
      },
      fused.data());
  gamma_.ensure_grad();
  beta_.ensure_grad();
  kernels::parallel_for(
      features_,
      [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          gamma_.grad[i] += fused[i];
          beta_.grad[i] += fused[features_ + i];
        }
      },
      kernels::rows_grain(1));
  return grad_in;
}

Tensor Gelu::forward_eval(const Tensor& x, const KernelTable&) const {
  Tensor y(x.shape());
  constexpr float c = 0.7978845608f;  // sqrt(2/pi)
  kernels::parallel_for(
      x.numel(),
      [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          const float v = x[i];
          y[i] =
              0.5f * v * (1.0f + std::tanh(c * (v + 0.044715f * v * v * v)));
        }
      },
      kernels::rows_grain(8));
  return y;
}

Tensor Gelu::forward(const Tensor& x, bool train) {
  Tensor y = forward_eval(x, {});
  if (train) cached_input_ = x;
  return y;
}

Tensor Gelu::backward(const Tensor& grad_out) {
  CRISP_CHECK(!cached_input_.empty(), name() << ": backward without forward");
  Tensor grad_in(grad_out.shape());
  constexpr float c = 0.7978845608f;
  kernels::parallel_for(
      grad_out.numel(),
      [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          const float v = cached_input_[i];
          const float u = c * (v + 0.044715f * v * v * v);
          const float t = std::tanh(u);
          const float du = c * (1.0f + 3.0f * 0.044715f * v * v);
          const float deriv =
              0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * du;
          grad_in[i] = grad_out[i] * deriv;
        }
      },
      kernels::rows_grain(8));
  return grad_in;
}

}  // namespace crisp::nn
