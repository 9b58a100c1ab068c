#include "nn/pooling.h"

#include "kernels/parallel_for.h"

namespace crisp::nn {

Tensor MaxPool2d::compute_forward(const Tensor& x,
                                  std::vector<std::int64_t>* argmax_out) const {
  CRISP_CHECK(x.dim() == 4, name() << " expects (B,C,H,W)");
  const std::int64_t batch = x.size(0), ch = x.size(1), h = x.size(2),
                     w = x.size(3);
  CRISP_CHECK(h >= kernel_ && w >= kernel_,
              name() << ": input " << h << "x" << w << " smaller than kernel "
                     << kernel_);
  const std::int64_t oh = (h - kernel_) / stride_ + 1;
  const std::int64_t ow = (w - kernel_) / stride_ + 1;
  Tensor y({batch, ch, oh, ow});
  std::int64_t* argmax = nullptr;
  if (argmax_out != nullptr) {
    argmax_out->assign(static_cast<std::size_t>(batch * ch * oh * ow), 0);
    argmax = argmax_out->data();
  }

  // Each (b, c) plane pools independently and writes a disjoint slice of y
  // (and of argmax), so the plane loop threads with bit-identical results
  // at any thread count.
  kernels::parallel_for(
      batch * ch,
      [&](std::int64_t p0, std::int64_t p1) {
        for (std::int64_t bc = p0; bc < p1; ++bc) {
          const float* plane = x.data() + bc * h * w;
          float* out = y.data() + bc * oh * ow;
          std::int64_t* amax = argmax == nullptr ? nullptr : argmax + bc * oh * ow;
          for (std::int64_t oy = 0; oy < oh; ++oy) {
            for (std::int64_t ox = 0; ox < ow; ++ox) {
              float best = -std::numeric_limits<float>::infinity();
              std::int64_t best_idx = 0;
              for (std::int64_t ky = 0; ky < kernel_; ++ky) {
                for (std::int64_t kx = 0; kx < kernel_; ++kx) {
                  const std::int64_t iy = oy * stride_ + ky;
                  const std::int64_t ix = ox * stride_ + kx;
                  const float v = plane[iy * w + ix];
                  if (v > best) {
                    best = v;
                    best_idx = iy * w + ix;
                  }
                }
              }
              out[oy * ow + ox] = best;
              if (amax != nullptr) amax[oy * ow + ox] = best_idx;
            }
          }
        }
      },
      kernels::rows_grain(oh * ow * kernel_ * kernel_));
  return y;
}

Tensor MaxPool2d::forward(const Tensor& x, bool train) {
  if (!train) return compute_forward(x, nullptr);
  Tensor y = compute_forward(x, &cached_argmax_);
  cached_in_shape_ = x.shape();
  return y;
}

Tensor MaxPool2d::forward_eval(const Tensor& x, const KernelTable&) const {
  return compute_forward(x, nullptr);
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  CRISP_CHECK(!cached_in_shape_.empty(), name() << ": backward without forward");
  const std::int64_t batch = cached_in_shape_[0], ch = cached_in_shape_[1],
                     h = cached_in_shape_[2], w = cached_in_shape_[3];
  const std::int64_t oh = grad_out.size(2), ow = grad_out.size(3);
  Tensor grad_in(cached_in_shape_);
  // Argmax indices stay inside their own (b, c) plane, so the plane loop
  // threads with disjoint scatter targets.
  kernels::parallel_for(
      batch * ch,
      [&](std::int64_t p0, std::int64_t p1) {
        for (std::int64_t bc = p0; bc < p1; ++bc) {
          const float* dy = grad_out.data() + bc * oh * ow;
          float* dx = grad_in.data() + bc * h * w;
          const std::int64_t* amax = cached_argmax_.data() + bc * oh * ow;
          for (std::int64_t i = 0; i < oh * ow; ++i) dx[amax[i]] += dy[i];
        }
      },
      kernels::rows_grain(oh * ow));
  return grad_in;
}

namespace {

/// Shared eval/train math of GlobalAvgPool: (B, C, H, W) -> (B, C) means.
Tensor global_avg_pool(const Tensor& x, const std::string& layer_name) {
  CRISP_CHECK(x.dim() == 4, layer_name << " expects (B,C,H,W)");
  const std::int64_t batch = x.size(0), ch = x.size(1),
                     hw = x.size(2) * x.size(3);
  Tensor y({batch, ch});
  kernels::parallel_for(
      batch * ch,
      [&](std::int64_t p0, std::int64_t p1) {
        for (std::int64_t bc = p0; bc < p1; ++bc) {
          const float* plane = x.data() + bc * hw;
          double acc = 0.0;
          for (std::int64_t i = 0; i < hw; ++i) acc += plane[i];
          y[bc] = static_cast<float>(acc / static_cast<double>(hw));
        }
      },
      kernels::rows_grain(hw));
  return y;
}

}  // namespace

Tensor GlobalAvgPool::forward(const Tensor& x, bool train) {
  Tensor y = global_avg_pool(x, name());
  if (train) cached_in_shape_ = x.shape();
  return y;
}

Tensor GlobalAvgPool::forward_eval(const Tensor& x, const KernelTable&) const {
  return global_avg_pool(x, name());
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  CRISP_CHECK(!cached_in_shape_.empty(), name() << ": backward without forward");
  const std::int64_t batch = cached_in_shape_[0], ch = cached_in_shape_[1],
                     hw = cached_in_shape_[2] * cached_in_shape_[3];
  const float inv = 1.0f / static_cast<float>(hw);
  Tensor grad_in(cached_in_shape_);
  kernels::parallel_for(
      batch * ch,
      [&](std::int64_t p0, std::int64_t p1) {
        for (std::int64_t bc = p0; bc < p1; ++bc) {
          const float g = grad_out[bc] * inv;
          float* dx = grad_in.data() + bc * hw;
          for (std::int64_t i = 0; i < hw; ++i) dx[i] = g;
        }
      },
      kernels::rows_grain(hw));
  return grad_in;
}

}  // namespace crisp::nn
