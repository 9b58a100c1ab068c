// Multi-head self-attention with hand-derived backward — the core of the
// transformer extension (the paper's stated future work: "extend these
// results to transformer-based architectures").
//
// All four projection matrices (Q, K, V, output) are stored (out, in) like
// Linear weights, so they are prunable S x K matrices for CRISP exactly as
// convolutions are.
#pragma once

#include "nn/layer.h"
#include "tensor/rng.h"

namespace crisp::nn {

class MultiHeadSelfAttention final : public Layer {
 public:
  /// `dim` must divide evenly into `heads`.
  MultiHeadSelfAttention(std::string name, std::int64_t dim,
                         std::int64_t heads, Rng& rng);

  /// x: (B, T, dim) -> (B, T, dim).
  Tensor forward(const Tensor& x, bool train) override;
  Tensor forward_eval(const Tensor& x, const KernelTable& table) const override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override;

  std::int64_t dim() const { return dim_; }
  std::int64_t heads() const { return heads_; }

 private:
  /// Everything one forward computes. `forward` moves the intermediates
  /// into the training caches; the const eval path drops them.
  struct ForwardState {
    Tensor q, k, v, attn, o, y;
  };
  ForwardState run_forward(const Tensor& x) const;

  std::int64_t dim_;
  std::int64_t heads_;
  std::int64_t head_dim_;
  Parameter wq_, wk_, wv_, wo_;
  Parameter bq_, bk_, bv_, bo_;

  // Forward caches (training mode).
  Tensor cached_x_;      ///< (B, T, D)
  Tensor cached_q_;      ///< (B, T, D)
  Tensor cached_k_;
  Tensor cached_v_;
  Tensor cached_attn_;   ///< (B, H, T, T) softmax weights
  Tensor cached_o_;      ///< (B, T, D) pre-output-projection
};

}  // namespace crisp::nn
