// Vision-transformer-style model — the paper's future-work extension
// ("We plan to extend these results to transformer-based architectures").
//
// Patch-embedding conv -> token sequence -> pre-norm transformer blocks
// (multi-head self-attention + GELU MLP) -> mean pool -> linear head. All
// projection and MLP weights are prunable S x K matrices, so the CRISP
// pruner applies unchanged.
#pragma once

#include "nn/attention.h"
#include "nn/layernorm.h"
#include "nn/linear.h"
#include "nn/models/common.h"

namespace crisp::nn {

/// (B, D, Hp, Wp) -> (B, T = Hp*Wp, D): per-sample transpose to token-major.
class ToTokens final : public Layer {
 public:
  explicit ToTokens(std::string name) : Layer(std::move(name)) {}
  Tensor forward(const Tensor& x, bool train) override;
  Tensor forward_eval(const Tensor& x, const KernelTable& table) const override;
  Tensor backward(const Tensor& grad_out) override;

 private:
  Shape cached_in_shape_;
};

/// Adds a learnable (T, D) positional table to every sample.
class PositionalEmbedding final : public Layer {
 public:
  PositionalEmbedding(std::string name, std::int64_t tokens, std::int64_t dim,
                      Rng& rng);
  Tensor forward(const Tensor& x, bool train) override;
  Tensor forward_eval(const Tensor& x, const KernelTable& table) const override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override { return {&table_}; }

 private:
  std::int64_t tokens_;
  std::int64_t dim_;
  Parameter table_;
};

/// (B, T, D) -> (B, D) by averaging tokens.
class TokenMeanPool final : public Layer {
 public:
  explicit TokenMeanPool(std::string name) : Layer(std::move(name)) {}
  Tensor forward(const Tensor& x, bool train) override;
  Tensor forward_eval(const Tensor& x, const KernelTable& table) const override;
  Tensor backward(const Tensor& grad_out) override;

 private:
  Shape cached_in_shape_;
};

/// Pre-norm transformer block: x + MHSA(LN(x)), then y + MLP(LN(y)).
class TransformerBlock final : public Layer {
 public:
  TransformerBlock(std::string name, std::int64_t dim, std::int64_t heads,
                   std::int64_t mlp_ratio, Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor forward_eval(const Tensor& x, const KernelTable& table) const override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override;
  std::vector<Layer*> children() override;
  std::int64_t last_dense_macs() const override;
  std::int64_t last_sparse_macs() const override;

 private:
  LayerNorm ln1_;
  MultiHeadSelfAttention attn_;
  LayerNorm ln2_;
  Sequential mlp_;
  Shape cached_token_shape_;  ///< (B, T, D) for the MLP's 2-D reshape
};

struct VitConfig {
  std::int64_t num_classes = 100;
  std::int64_t input_size = 16;
  std::int64_t patch = 4;
  std::int64_t dim = 32;       ///< token width (multiple of 4 for N:M)
  std::int64_t heads = 4;
  std::int64_t depth = 4;
  std::int64_t mlp_ratio = 4;
  std::uint64_t seed = 42;
};

std::unique_ptr<Sequential> make_vit(const VitConfig& cfg);

}  // namespace crisp::nn
