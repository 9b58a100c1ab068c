#include "nn/conv2d.h"

#include <cmath>
#include <cstring>

#include "kernels/parallel_for.h"
#include "kernels/reduce.h"
#include "kernels/spmm_kernel.h"
#include "tensor/matmul.h"

namespace crisp::nn {

Conv2d::Conv2d(std::string name, const Conv2dSpec& spec, Rng& rng)
    : Layer(std::move(name)), spec_(spec) {
  CRISP_CHECK(spec_.in_channels % spec_.groups == 0,
              "in_channels " << spec_.in_channels << " not divisible by groups "
                             << spec_.groups);
  CRISP_CHECK(spec_.out_channels % spec_.groups == 0,
              "out_channels not divisible by groups");
  const std::int64_t rg = spec_.in_channels / spec_.groups;
  const std::int64_t fan_in = rg * spec_.kernel * spec_.kernel;
  // He initialisation — appropriate for the ReLU networks we build.
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  weight_.name = this->name() + ".weight";
  weight_.value = Tensor::randn(
      {spec_.out_channels, rg, spec_.kernel, spec_.kernel}, rng, 0.0f, stddev);
  weight_.prunable = spec_.prunable;
  weight_.matrix_rows = spec_.out_channels;
  weight_.matrix_cols = fan_in;
  if (spec_.bias) {
    bias_.name = this->name() + ".bias";
    bias_.value = Tensor::zeros({spec_.out_channels});
  }
}

ConvGeometry Conv2d::group_geometry(std::int64_t in_h, std::int64_t in_w) const {
  ConvGeometry g;
  g.in_channels = spec_.in_channels / spec_.groups;
  g.in_h = in_h;
  g.in_w = in_w;
  g.kernel_h = spec_.kernel;
  g.kernel_w = spec_.kernel;
  g.stride = spec_.stride;
  g.padding = spec_.padding;
  return g;
}

Tensor Conv2d::compute_forward(const Tensor& x,
                               const kernels::SpmmKernel* kernel) const {
  CRISP_CHECK(x.dim() == 4, "Conv2d expects (B,C,H,W), got "
                                << shape_to_string(x.shape()));
  CRISP_CHECK(x.size(1) == spec_.in_channels,
              name() << ": input channels " << x.size(1) << " != "
                     << spec_.in_channels);
  const std::int64_t batch = x.size(0), in_h = x.size(2), in_w = x.size(3);
  const ConvGeometry g = group_geometry(in_h, in_w);
  const std::int64_t k = g.col_rows(), p = g.col_cols();
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  const std::int64_t sg = spec_.out_channels / spec_.groups;  // out ch / group

  const Tensor w_eff = kernel != nullptr ? Tensor() : weight_.effective_value();
  Tensor y({batch, spec_.out_channels, oh, ow});

  // Samples are independent, so the batch is the coarsest safe parallel
  // axis: each chunk lowers into its own im2col scratch and writes a
  // disjoint slice of y. Only worth it when the batch can occupy every
  // thread — otherwise (small-batch inference) the loop runs serially at
  // the top level and the per-sample GEMM/kernel threads over output rows
  // instead. The grain keeps chunks thread-sized, so at most one scratch
  // allocation per thread rather than per sample.
  auto run_samples = [&](std::int64_t b0, std::int64_t b1) {
    Tensor cols({k, p});
    for (std::int64_t b = b0; b < b1; ++b) {
      for (std::int64_t grp = 0; grp < spec_.groups; ++grp) {
        const float* x_grp =
            x.data() +
            (b * spec_.in_channels + grp * g.in_channels) * in_h * in_w;
        im2col(x_grp, g, cols.data());
        MatrixView ymat(y.data() + (b * spec_.out_channels + grp * sg) * p, sg,
                        p);
        if (kernel != nullptr) {
          kernel->spmm(ConstMatrixView(cols.data(), k, p), ymat);
        } else {
          ConstMatrixView wmat(w_eff.data() + grp * sg * k, sg, k);
          matmul(wmat, ConstMatrixView(cols.data(), k, p), ymat);
        }
      }
    }
  };
  const int threads = kernels::num_threads();
  if (batch >= threads && threads > 1) {
    kernels::parallel_for(batch, run_samples,
                          /*grain=*/(batch + threads - 1) / threads);
  } else {
    run_samples(0, batch);
  }

  if (spec_.bias) {
    kernels::parallel_for(
        batch * spec_.out_channels,
        [&](std::int64_t p0, std::int64_t p1) {
          for (std::int64_t bc = p0; bc < p1; ++bc) {
            float* plane = y.data() + bc * p;
            const float bv = bias_.value[bc % spec_.out_channels];
            for (std::int64_t i = 0; i < p; ++i) plane[i] += bv;
          }
        },
        kernels::rows_grain(p));
  }
  return y;
}

Tensor Conv2d::forward(const Tensor& x, bool train) {
  Tensor y = compute_forward(x, nullptr);

  const ConvGeometry g = group_geometry(x.size(2), x.size(3));
  const std::int64_t k = g.col_rows(), p = g.col_cols();
  const std::int64_t batch = x.size(0);
  // Per output position each group contributes its nnz weights, so the total
  // per-sample MACs equal p * nnz(weight) regardless of the group count.
  const std::int64_t dense_macs = batch * spec_.out_channels * k * p;
  const std::int64_t nnz =
      weight_.has_mask() ? weight_.mask.count_nonzero() : weight_.value.numel();
  record_macs(dense_macs, batch * p * nnz);

  if (train) cached_input_ = x;
  return y;
}

Tensor Conv2d::forward_eval(const Tensor& x, const KernelTable& table) const {
  return compute_forward(x, find_kernel(table, gemm_weight()));
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  CRISP_CHECK(!cached_input_.empty(),
              name() << ": backward called without cached forward");
  const Tensor& x = cached_input_;
  const std::int64_t batch = x.size(0), in_h = x.size(2), in_w = x.size(3);
  const ConvGeometry g = group_geometry(in_h, in_w);
  const std::int64_t k = g.col_rows(), p = g.col_cols();
  const std::int64_t sg = spec_.out_channels / spec_.groups;
  CRISP_CHECK(grad_out.size(0) == batch &&
                  grad_out.size(1) == spec_.out_channels &&
                  grad_out.size(2) == g.out_h() && grad_out.size(3) == g.out_w(),
              name() << ": grad_out shape mismatch");

  const Tensor w_eff = weight_.effective_value();
  Tensor grad_in({batch, spec_.in_channels, in_h, in_w});

  // Samples are independent on the input side (each writes its own grad_in
  // slice) but all contribute to the same weight gradient, so the batch
  // loop threads through parallel_accumulate: every chunk owns a private
  // dW accumulator and a fixed-order tree merges them — gradients are
  // bit-identical at any thread count (single-chunk batches accumulate
  // straight into weight_.grad, exactly the old serial order). The inner
  // GEMMs detect the parallel region and run inline; a batch too small to
  // chunk keeps its GEMM-level threading instead.
  auto backward_samples = [&](float* dw_acc, std::int64_t b0, std::int64_t b1) {
    Tensor cols({k, p});
    Tensor dcols({k, p});
    Tensor dw_local({sg, k});
    for (std::int64_t b = b0; b < b1; ++b) {
      for (std::int64_t grp = 0; grp < spec_.groups; ++grp) {
        const float* x_grp =
            x.data() +
            (b * spec_.in_channels + grp * g.in_channels) * in_h * in_w;
        im2col(x_grp, g, cols.data());  // recomputed: cheaper than caching all

        ConstMatrixView dy(
            grad_out.data() + (b * spec_.out_channels + grp * sg) * p, sg, p);
        // dW += dY · colsᵀ  — gradient w.r.t. the *effective* weight, stored
        // on the dense weight (straight-through estimator).
        matmul_nt(dy, ConstMatrixView(cols.data(), k, p),
                  as_matrix(dw_local, sg, k));
        float* dst = dw_acc + grp * sg * k;
        for (std::int64_t i = 0; i < sg * k; ++i) dst[i] += dw_local[i];

        // dcols = W_effᵀ · dY, then scatter back to the input image.
        ConstMatrixView wmat(w_eff.data() + grp * sg * k, sg, k);
        matmul_tn(wmat, dy, as_matrix(dcols, k, p));
        float* gin =
            grad_in.data() +
            (b * spec_.in_channels + grp * g.in_channels) * in_h * in_w;
        col2im(dcols.data(), g, gin);
      }
    }
  };
  // Per-sample cost ≈ the two GEMMs; im2col/col2im ride along.
  weight_.ensure_grad();
  kernels::parallel_accumulate(
      batch, kernels::rows_grain(2 * spec_.out_channels * k * p),
      weight_.grad.numel(), backward_samples, weight_.grad.data());

  if (spec_.bias) {
    bias_.ensure_grad();
    // One writer per channel; the batch is summed in ascending order inside
    // it, so the result never depends on the channel partition.
    kernels::parallel_for(
        spec_.out_channels,
        [&](std::int64_t c0, std::int64_t c1) {
          for (std::int64_t c = c0; c < c1; ++c)
            for (std::int64_t b = 0; b < batch; ++b) {
              const float* plane =
                  grad_out.data() + (b * spec_.out_channels + c) * p;
              double acc = 0.0;
              for (std::int64_t i = 0; i < p; ++i) acc += plane[i];
              bias_.grad[c] += static_cast<float>(acc);
            }
        },
        kernels::rows_grain(batch * p));
  }
  return grad_in;
}

std::vector<Parameter*> Conv2d::parameters() {
  std::vector<Parameter*> ps{&weight_};
  if (spec_.bias) ps.push_back(&bias_);
  return ps;
}

}  // namespace crisp::nn
