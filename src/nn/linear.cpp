#include "nn/linear.h"

#include <cmath>

#include "kernels/parallel_for.h"
#include "kernels/spmm_kernel.h"
#include "tensor/matmul.h"

namespace crisp::nn {

Linear::Linear(std::string name, std::int64_t in_features,
               std::int64_t out_features, Rng& rng, bool bias, bool prunable)
    : Layer(std::move(name)),
      in_features_(in_features),
      out_features_(out_features),
      has_bias_(bias) {
  const float stddev = std::sqrt(2.0f / static_cast<float>(in_features));
  weight_.name = this->name() + ".weight";
  weight_.value = Tensor::randn({out_features, in_features}, rng, 0.0f, stddev);
  weight_.prunable = prunable;
  weight_.matrix_rows = out_features;
  weight_.matrix_cols = in_features;
  if (has_bias_) {
    bias_.name = this->name() + ".bias";
    bias_.value = Tensor::zeros({out_features});
  }
}

Tensor Linear::compute_forward(const Tensor& x,
                               const kernels::SpmmKernel* kernel) const {
  CRISP_CHECK(x.dim() == 2 && x.size(1) == in_features_,
              name() << ": expected (B," << in_features_ << "), got "
                     << shape_to_string(x.shape()));
  const std::int64_t batch = x.size(0);

  Tensor y({batch, out_features_});
  if (kernel != nullptr) {
    // The kernel contract is column-major activations: y' = W · x' with
    // x' = (in x B). Transpose in, run the packed GEMM, transpose out;
    // both transposes are row-partitioned over their output like every
    // other kernel (disjoint writes, so thread-count independent). The
    // work-based grain keeps single-sample inference inline — a pool
    // dispatch would cost more than the copies.
    Tensor xt({in_features_, batch});
    kernels::parallel_for(
        in_features_,
        [&](std::int64_t i0, std::int64_t i1) {
          for (std::int64_t i = i0; i < i1; ++i)
            for (std::int64_t b = 0; b < batch; ++b)
              xt[i * batch + b] = x[b * in_features_ + i];
        },
        kernels::rows_grain(batch));
    Tensor yt({out_features_, batch});
    kernel->spmm(ConstMatrixView(xt.data(), in_features_, batch),
                 MatrixView(yt.data(), out_features_, batch));
    kernels::parallel_for(
        batch,
        [&](std::int64_t b0, std::int64_t b1) {
          for (std::int64_t b = b0; b < b1; ++b)
            for (std::int64_t o = 0; o < out_features_; ++o)
              y[b * out_features_ + o] = yt[o * batch + b];
        },
        kernels::rows_grain(out_features_));
  } else {
    const Tensor w_eff = weight_.effective_value();
    // y[b,o] = Σ_i x[b,i] · W[o,i]
    matmul_nt(as_matrix(x, batch, in_features_),
              as_matrix(w_eff, out_features_, in_features_),
              as_matrix(y, batch, out_features_));
  }
  if (has_bias_) {
    kernels::parallel_for(
        batch,
        [&](std::int64_t b0, std::int64_t b1) {
          for (std::int64_t b = b0; b < b1; ++b)
            for (std::int64_t o = 0; o < out_features_; ++o)
              y[b * out_features_ + o] += bias_.value[o];
        },
        kernels::rows_grain(out_features_));
  }
  return y;
}

Tensor Linear::forward(const Tensor& x, bool train) {
  Tensor y = compute_forward(x, nullptr);

  const std::int64_t nnz =
      weight_.has_mask() ? weight_.mask.count_nonzero() : weight_.value.numel();
  record_macs(x.size(0) * out_features_ * in_features_, x.size(0) * nnz);

  if (train) cached_input_ = x;
  return y;
}

Tensor Linear::forward_eval(const Tensor& x, const KernelTable& table) const {
  return compute_forward(x, find_kernel(table, gemm_weight()));
}

Tensor Linear::backward(const Tensor& grad_out) {
  CRISP_CHECK(!cached_input_.empty(),
              name() << ": backward called without cached forward");
  const Tensor& x = cached_input_;
  const std::int64_t batch = x.size(0);
  CRISP_CHECK(grad_out.dim() == 2 && grad_out.size(0) == batch &&
                  grad_out.size(1) == out_features_,
              name() << ": grad_out shape mismatch");

  // dW[o,i] += Σ_b dY[b,o] · x[b,i]   (STE: stored on the dense weight)
  Tensor dw({out_features_, in_features_});
  matmul_tn(as_matrix(grad_out, batch, out_features_),
            as_matrix(x, batch, in_features_),
            as_matrix(dw, out_features_, in_features_));
  weight_.ensure_grad();
  weight_.grad.add_(dw);

  if (has_bias_) {
    bias_.ensure_grad();
    // db[o] += Σ_b dY[b,o] — one writer per output feature, with the batch
    // accumulated in ascending order inside it, so the sum is independent
    // of how the features are chunked across threads.
    kernels::parallel_for(
        out_features_,
        [&](std::int64_t o0, std::int64_t o1) {
          for (std::int64_t o = o0; o < o1; ++o) {
            float acc = 0.0f;
            for (std::int64_t b = 0; b < batch; ++b)
              acc += grad_out[b * out_features_ + o];
            bias_.grad[o] += acc;
          }
        },
        kernels::rows_grain(batch));
  }

  // dx = dY · W_eff
  const Tensor w_eff = weight_.effective_value();
  Tensor grad_in({batch, in_features_});
  matmul(as_matrix(grad_out, batch, out_features_),
         as_matrix(w_eff, out_features_, in_features_),
         as_matrix(grad_in, batch, in_features_));
  return grad_in;
}

std::vector<Parameter*> Linear::parameters() {
  std::vector<Parameter*> ps{&weight_};
  if (has_bias_) ps.push_back(&bias_);
  return ps;
}

}  // namespace crisp::nn
