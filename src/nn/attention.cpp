#include "nn/attention.h"

#include <cmath>
#include <vector>

#include "kernels/parallel_for.h"
#include "tensor/matmul.h"

namespace crisp::nn {

namespace {

void init_projection(Parameter& p, const std::string& name, std::int64_t out,
                     std::int64_t in, Rng& rng) {
  const float stddev = std::sqrt(1.0f / static_cast<float>(in));
  p.name = name;
  p.value = Tensor::randn({out, in}, rng, 0.0f, stddev);
  p.prunable = true;
  p.matrix_rows = out;
  p.matrix_cols = in;
}

void init_bias(Parameter& p, const std::string& name, std::int64_t out) {
  p.name = name;
  p.value = Tensor::zeros({out});
}

/// y(BT x D) = x(BT x D) · Wᵀ + b, using the effective (masked) weight.
Tensor project(const Tensor& x, const Parameter& w, const Parameter& b,
               std::int64_t rows, std::int64_t dim) {
  const Tensor w_eff = w.effective_value();
  Tensor y({rows, dim});
  matmul_nt(ConstMatrixView(x.data(), rows, dim),
            as_matrix(w_eff, dim, dim), as_matrix(y, rows, dim));
  kernels::parallel_for(
      rows,
      [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r)
          for (std::int64_t i = 0; i < dim; ++i) y[r * dim + i] += b.value[i];
      },
      kernels::rows_grain(dim));
  return y;
}

/// Accumulates dW += dYᵀ·x and db += Σ dY; returns dx = dY·W_eff.
Tensor project_backward(const Tensor& dy, const Tensor& x, Parameter& w,
                        Parameter& b, std::int64_t rows, std::int64_t dim) {
  Tensor dw({dim, dim});
  matmul_tn(ConstMatrixView(dy.data(), rows, dim),
            ConstMatrixView(x.data(), rows, dim), as_matrix(dw, dim, dim));
  w.ensure_grad();
  w.grad.add_(dw);
  b.ensure_grad();
  // db[i] += Σ_r dY[r,i] — one writer per bias slot, rows accumulated in
  // ascending order inside it, so the sum never depends on the partition.
  kernels::parallel_for(
      dim,
      [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          float acc = 0.0f;
          for (std::int64_t r = 0; r < rows; ++r) acc += dy[r * dim + i];
          b.grad[i] += acc;
        }
      },
      kernels::rows_grain(rows));

  const Tensor w_eff = w.effective_value();
  Tensor dx({rows, dim});
  matmul(ConstMatrixView(dy.data(), rows, dim), as_matrix(w_eff, dim, dim),
         as_matrix(dx, rows, dim));
  return dx;
}

}  // namespace

MultiHeadSelfAttention::MultiHeadSelfAttention(std::string name,
                                               std::int64_t dim,
                                               std::int64_t heads, Rng& rng)
    : Layer(std::move(name)), dim_(dim), heads_(heads), head_dim_(dim / heads) {
  CRISP_CHECK(heads >= 1 && dim % heads == 0,
              "dim " << dim << " not divisible by heads " << heads);
  init_projection(wq_, this->name() + ".wq", dim, dim, rng);
  init_projection(wk_, this->name() + ".wk", dim, dim, rng);
  init_projection(wv_, this->name() + ".wv", dim, dim, rng);
  init_projection(wo_, this->name() + ".wo", dim, dim, rng);
  init_bias(bq_, this->name() + ".bq", dim);
  init_bias(bk_, this->name() + ".bk", dim);
  init_bias(bv_, this->name() + ".bv", dim);
  init_bias(bo_, this->name() + ".bo", dim);
}

MultiHeadSelfAttention::ForwardState MultiHeadSelfAttention::run_forward(
    const Tensor& x) const {
  CRISP_CHECK(x.dim() == 3 && x.size(2) == dim_,
              name() << ": expected (B, T, " << dim_ << "), got "
                     << shape_to_string(x.shape()));
  const std::int64_t batch = x.size(0), tokens = x.size(1);
  const std::int64_t rows = batch * tokens;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));

  Tensor q = project(x, wq_, bq_, rows, dim_);
  Tensor k = project(x, wk_, bk_, rows, dim_);
  Tensor v = project(x, wv_, bv_, rows, dim_);

  Tensor attn({batch, heads_, tokens, tokens});
  Tensor o({batch, tokens, dim_});

  // Every (b, h) pair owns its attention plane and its `off` column band of
  // o, so the head loop threads with disjoint writes and per-(b, h) math
  // that never depends on the partition.
  kernels::parallel_for(
      batch * heads_,
      [&](std::int64_t p0, std::int64_t p1) {
        for (std::int64_t bh = p0; bh < p1; ++bh) {
          const std::int64_t b = bh / heads_, h = bh % heads_;
          const std::int64_t off = h * head_dim_;
          float* a = attn.data() + (bh * tokens) * tokens;
          // scores S = Q_h · K_hᵀ * scale, then row-softmax in place.
          for (std::int64_t i = 0; i < tokens; ++i) {
            const float* qi = q.data() + (b * tokens + i) * dim_ + off;
            float mx = -1e30f;
            for (std::int64_t j = 0; j < tokens; ++j) {
              const float* kj = k.data() + (b * tokens + j) * dim_ + off;
              float s = 0.0f;
              for (std::int64_t d = 0; d < head_dim_; ++d) s += qi[d] * kj[d];
              a[i * tokens + j] = s * scale;
              mx = std::max(mx, a[i * tokens + j]);
            }
            double denom = 0.0;
            for (std::int64_t j = 0; j < tokens; ++j) {
              a[i * tokens + j] = std::exp(a[i * tokens + j] - mx);
              denom += a[i * tokens + j];
            }
            const float inv = static_cast<float>(1.0 / denom);
            for (std::int64_t j = 0; j < tokens; ++j) a[i * tokens + j] *= inv;
          }
          // O_h = A · V_h
          for (std::int64_t i = 0; i < tokens; ++i) {
            float* oi = o.data() + (b * tokens + i) * dim_ + off;
            for (std::int64_t d = 0; d < head_dim_; ++d) oi[d] = 0.0f;
            for (std::int64_t j = 0; j < tokens; ++j) {
              const float aij = a[i * tokens + j];
              const float* vj = v.data() + (b * tokens + j) * dim_ + off;
              for (std::int64_t d = 0; d < head_dim_; ++d) oi[d] += aij * vj[d];
            }
          }
        }
      },
      kernels::rows_grain(2 * tokens * tokens * head_dim_));

  Tensor y = project(o, wo_, bo_, rows, dim_);
  y.reshape_inplace({batch, tokens, dim_});

  ForwardState st;
  st.q = std::move(q);
  st.k = std::move(k);
  st.v = std::move(v);
  st.attn = std::move(attn);
  st.o = std::move(o);
  st.y = std::move(y);
  return st;
}

Tensor MultiHeadSelfAttention::forward(const Tensor& x, bool train) {
  ForwardState st = run_forward(x);
  if (train) {
    cached_x_ = x;
    cached_q_ = std::move(st.q);
    cached_k_ = std::move(st.k);
    cached_v_ = std::move(st.v);
    cached_attn_ = std::move(st.attn);
    cached_o_ = std::move(st.o);
  }
  return std::move(st.y);
}

Tensor MultiHeadSelfAttention::forward_eval(const Tensor& x,
                                            const KernelTable&) const {
  return run_forward(x).y;
}

Tensor MultiHeadSelfAttention::backward(const Tensor& grad_out) {
  CRISP_CHECK(!cached_x_.empty(), name() << ": backward without forward");
  const std::int64_t batch = cached_x_.size(0), tokens = cached_x_.size(1);
  const std::int64_t rows = batch * tokens;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  CRISP_CHECK(grad_out.dim() == 3 && grad_out.size(0) == batch &&
                  grad_out.size(1) == tokens && grad_out.size(2) == dim_,
              name() << ": grad_out shape mismatch");

  // Output projection.
  Tensor d_o = project_backward(grad_out, cached_o_, wo_, bo_, rows, dim_);

  Tensor dq({batch, tokens, dim_});
  Tensor dk({batch, tokens, dim_});
  Tensor dv({batch, tokens, dim_});

  // Mirror of the forward partition: each (b, h) pair writes only its own
  // `off` column band of dq/dk/dv (rows of one sample, columns of one
  // head), so the head loop threads with disjoint writes; the dS scratch
  // is per-(b, h).
  kernels::parallel_for(
      batch * heads_,
      [&](std::int64_t p0, std::int64_t p1) {
        for (std::int64_t bh = p0; bh < p1; ++bh) {
          const std::int64_t b = bh / heads_, h = bh % heads_;
          const std::int64_t off = h * head_dim_;
          const float* a = cached_attn_.data() + (bh * tokens) * tokens;
          // dA = dO_h · V_hᵀ ; dV_h = Aᵀ · dO_h
          std::vector<float> da(static_cast<std::size_t>(tokens * tokens),
                                0.0f);
          for (std::int64_t i = 0; i < tokens; ++i) {
            const float* doi = d_o.data() + (b * tokens + i) * dim_ + off;
            for (std::int64_t j = 0; j < tokens; ++j) {
              const float* vj = cached_v_.data() + (b * tokens + j) * dim_ + off;
              float acc = 0.0f;
              for (std::int64_t d = 0; d < head_dim_; ++d) acc += doi[d] * vj[d];
              da[static_cast<std::size_t>(i * tokens + j)] = acc;

              const float aij = a[i * tokens + j];
              float* dvj = dv.data() + (b * tokens + j) * dim_ + off;
              for (std::int64_t d = 0; d < head_dim_; ++d) dvj[d] += aij * doi[d];
            }
          }
          // Softmax backward: dS_ij = A_ij (dA_ij − Σ_k dA_ik A_ik).
          for (std::int64_t i = 0; i < tokens; ++i) {
            double dot = 0.0;
            for (std::int64_t j = 0; j < tokens; ++j)
              dot += static_cast<double>(da[static_cast<std::size_t>(i * tokens + j)]) *
                     a[i * tokens + j];
            for (std::int64_t j = 0; j < tokens; ++j) {
              const std::size_t idx = static_cast<std::size_t>(i * tokens + j);
              da[idx] = a[i * tokens + j] *
                        (da[idx] - static_cast<float>(dot));  // now holds dS
            }
          }
          // dQ_h = dS · K_h · scale ; dK_h = dSᵀ · Q_h · scale
          for (std::int64_t i = 0; i < tokens; ++i) {
            float* dqi = dq.data() + (b * tokens + i) * dim_ + off;
            for (std::int64_t j = 0; j < tokens; ++j) {
              const float ds = da[static_cast<std::size_t>(i * tokens + j)] * scale;
              const float* kj = cached_k_.data() + (b * tokens + j) * dim_ + off;
              const float* qi = cached_q_.data() + (b * tokens + i) * dim_ + off;
              float* dkj = dk.data() + (b * tokens + j) * dim_ + off;
              for (std::int64_t d = 0; d < head_dim_; ++d) {
                dqi[d] += ds * kj[d];
                dkj[d] += ds * qi[d];
              }
            }
          }
        }
      },
      kernels::rows_grain(3 * tokens * tokens * head_dim_));

  Tensor dx = project_backward(dq, cached_x_, wq_, bq_, rows, dim_);
  dx.add_(project_backward(dk, cached_x_, wk_, bk_, rows, dim_));
  dx.add_(project_backward(dv, cached_x_, wv_, bv_, rows, dim_));
  dx.reshape_inplace({batch, tokens, dim_});
  return dx;
}

std::vector<Parameter*> MultiHeadSelfAttention::parameters() {
  return {&wq_, &wk_, &wv_, &wo_, &bq_, &bk_, &bv_, &bo_};
}

}  // namespace crisp::nn
