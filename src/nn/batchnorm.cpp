#include "nn/batchnorm.h"

#include <cmath>

#include "kernels/parallel_for.h"

namespace crisp::nn {

BatchNorm2d::BatchNorm2d(std::string name, std::int64_t channels,
                         float momentum, float eps)
    : Layer(std::move(name)),
      channels_(channels),
      momentum_(momentum),
      eps_(eps) {
  gamma_.name = this->name() + ".gamma";
  gamma_.value = Tensor::ones({channels});
  beta_.name = this->name() + ".beta";
  beta_.value = Tensor::zeros({channels});
  running_mean_ = Tensor::zeros({channels});
  running_var_ = Tensor::ones({channels});
}

void BatchNorm2d::check_input(const Tensor& x) const {
  CRISP_CHECK(x.dim() == 4 && x.size(1) == channels_,
              name() << ": expected (B," << channels_ << ",H,W), got "
                     << shape_to_string(x.shape()));
}

Tensor BatchNorm2d::forward(const Tensor& x, bool train) {
  if (!train) return forward_eval(x, {});
  check_input(x);
  const std::int64_t batch = x.size(0), hw = x.size(2) * x.size(3);
  const std::int64_t plane = channels_ * hw;
  Tensor y(x.shape());

  cached_xhat_ = Tensor(x.shape());
  cached_inv_std_ = Tensor({channels_});
  cached_batch_ = batch;
  cached_hw_ = hw;
  const double count = static_cast<double>(batch * hw);
  // Channels are independent: each owns its statistics, its running-stat
  // slots, and its (b, c) planes of y/xhat, so the channel loop threads
  // with disjoint writes and a per-channel accumulation order that never
  // depends on the partition — bit-identical at any thread count.
  kernels::parallel_for(
      channels_,
      [&](std::int64_t c0, std::int64_t c1) {
        for (std::int64_t c = c0; c < c1; ++c) {
          double sum = 0.0, sq = 0.0;
          for (std::int64_t b = 0; b < batch; ++b) {
            const float* p = x.data() + b * plane + c * hw;
            for (std::int64_t i = 0; i < hw; ++i) {
              sum += p[i];
              sq += static_cast<double>(p[i]) * p[i];
            }
          }
          const float mean = static_cast<float>(sum / count);
          const float var = static_cast<float>(sq / count - mean * mean);
          const float inv_std = 1.0f / std::sqrt(var + eps_);
          cached_inv_std_[c] = inv_std;
          running_mean_[c] =
              (1.0f - momentum_) * running_mean_[c] + momentum_ * mean;
          running_var_[c] =
              (1.0f - momentum_) * running_var_[c] + momentum_ * var;
          const float g = gamma_.value[c], bta = beta_.value[c];
          for (std::int64_t b = 0; b < batch; ++b) {
            const float* p = x.data() + b * plane + c * hw;
            float* xh = cached_xhat_.data() + b * plane + c * hw;
            float* out = y.data() + b * plane + c * hw;
            for (std::int64_t i = 0; i < hw; ++i) {
              xh[i] = (p[i] - mean) * inv_std;
              out[i] = g * xh[i] + bta;
            }
          }
        }
      },
      kernels::rows_grain(3 * batch * hw));
  return y;
}

Tensor BatchNorm2d::forward_eval(const Tensor& x, const KernelTable&) const {
  check_input(x);
  const std::int64_t batch = x.size(0), hw = x.size(2) * x.size(3);
  Tensor y(x.shape());
  // Every (b, c) plane normalises independently with frozen statistics.
  kernels::parallel_for(
      batch * channels_,
      [&](std::int64_t p0, std::int64_t p1) {
        for (std::int64_t bc = p0; bc < p1; ++bc) {
          const std::int64_t c = bc % channels_;
          const float mean = running_mean_[c];
          const float inv_std = 1.0f / std::sqrt(running_var_[c] + eps_);
          const float g = gamma_.value[c], bta = beta_.value[c];
          const float* p = x.data() + bc * hw;
          float* out = y.data() + bc * hw;
          for (std::int64_t i = 0; i < hw; ++i)
            out[i] = g * (p[i] - mean) * inv_std + bta;
        }
      },
      kernels::rows_grain(hw));
  return y;
}

Tensor BatchNorm2d::backward(const Tensor& grad_out) {
  CRISP_CHECK(!cached_xhat_.empty(),
              name() << ": backward called without training forward");
  const std::int64_t batch = cached_batch_, hw = cached_hw_;
  const std::int64_t plane = channels_ * hw;
  const double count = static_cast<double>(batch * hw);
  Tensor grad_in(grad_out.shape());
  gamma_.ensure_grad();
  beta_.ensure_grad();

  // Same partitioning argument as the training forward: every channel owns
  // its reduction sums, its gamma/beta gradient slots, and its (b, c) planes
  // of grad_in, so the channel loop threads with disjoint writes and a
  // per-channel accumulation order that never depends on the partition.
  kernels::parallel_for(
      channels_,
      [&](std::int64_t c0, std::int64_t c1) {
        for (std::int64_t c = c0; c < c1; ++c) {
          // Standard batch-norm backward:
          // dxhat = dy * gamma
          // dx = inv_std/N * (N*dxhat - Σdxhat - xhat*Σ(dxhat*xhat))
          double sum_dy = 0.0, sum_dy_xhat = 0.0;
          for (std::int64_t b = 0; b < batch; ++b) {
            const float* dy = grad_out.data() + b * plane + c * hw;
            const float* xh = cached_xhat_.data() + b * plane + c * hw;
            for (std::int64_t i = 0; i < hw; ++i) {
              sum_dy += dy[i];
              sum_dy_xhat += static_cast<double>(dy[i]) * xh[i];
            }
          }
          gamma_.grad[c] += static_cast<float>(sum_dy_xhat);
          beta_.grad[c] += static_cast<float>(sum_dy);

          const float g = gamma_.value[c];
          const float inv_std = cached_inv_std_[c];
          const float mean_dy = static_cast<float>(sum_dy / count);
          const float mean_dy_xhat = static_cast<float>(sum_dy_xhat / count);
          for (std::int64_t b = 0; b < batch; ++b) {
            const float* dy = grad_out.data() + b * plane + c * hw;
            const float* xh = cached_xhat_.data() + b * plane + c * hw;
            float* dx = grad_in.data() + b * plane + c * hw;
            for (std::int64_t i = 0; i < hw; ++i)
              dx[i] = g * inv_std * (dy[i] - mean_dy - xh[i] * mean_dy_xhat);
          }
        }
      },
      kernels::rows_grain(3 * batch * hw));
  return grad_in;
}

std::vector<Parameter*> BatchNorm2d::parameters() { return {&gamma_, &beta_}; }

std::vector<NamedBuffer> BatchNorm2d::buffers() {
  return {{name() + ".running_mean", &running_mean_},
          {name() + ".running_var", &running_var_}};
}

}  // namespace crisp::nn
