#include "nn/models/transformer.h"

#include "kernels/parallel_for.h"
#include "nn/conv2d.h"

namespace crisp::nn {

Tensor ToTokens::forward_eval(const Tensor& x, const KernelTable&) const {
  CRISP_CHECK(x.dim() == 4, name() << " expects (B, D, H, W)");
  const std::int64_t batch = x.size(0), dim = x.size(1),
                     tokens = x.size(2) * x.size(3);
  Tensor y({batch, tokens, dim});
  // Pure transpose: every (b, d) plane scatters to its own column of y.
  kernels::parallel_for(
      batch * dim,
      [&](std::int64_t p0, std::int64_t p1) {
        for (std::int64_t bd = p0; bd < p1; ++bd) {
          const std::int64_t b = bd / dim, d = bd % dim;
          const float* plane = x.data() + bd * tokens;
          for (std::int64_t t = 0; t < tokens; ++t)
            y[(b * tokens + t) * dim + d] = plane[t];
        }
      },
      kernels::rows_grain(tokens));
  return y;
}

Tensor ToTokens::forward(const Tensor& x, bool train) {
  Tensor y = forward_eval(x, {});
  if (train) cached_in_shape_ = x.shape();
  return y;
}

Tensor ToTokens::backward(const Tensor& grad_out) {
  CRISP_CHECK(!cached_in_shape_.empty(), name() << ": backward without forward");
  const std::int64_t batch = cached_in_shape_[0], dim = cached_in_shape_[1],
                     tokens = cached_in_shape_[2] * cached_in_shape_[3];
  Tensor dx(cached_in_shape_);
  kernels::parallel_for(
      batch * dim,
      [&](std::int64_t p0, std::int64_t p1) {
        for (std::int64_t bd = p0; bd < p1; ++bd) {
          const std::int64_t b = bd / dim, d = bd % dim;
          float* plane = dx.data() + bd * tokens;
          for (std::int64_t t = 0; t < tokens; ++t)
            plane[t] = grad_out[(b * tokens + t) * dim + d];
        }
      },
      kernels::rows_grain(tokens));
  return dx;
}

PositionalEmbedding::PositionalEmbedding(std::string name, std::int64_t tokens,
                                         std::int64_t dim, Rng& rng)
    : Layer(std::move(name)), tokens_(tokens), dim_(dim) {
  table_.name = this->name() + ".table";
  table_.value = Tensor::randn({tokens, dim}, rng, 0.0f, 0.02f);
}

Tensor PositionalEmbedding::forward_eval(const Tensor& x,
                                         const KernelTable&) const {
  CRISP_CHECK(x.dim() == 3 && x.size(1) == tokens_ && x.size(2) == dim_,
              name() << ": expected (B, " << tokens_ << ", " << dim_ << ")");
  Tensor y = x;
  const std::int64_t batch = x.size(0);
  kernels::parallel_for(
      batch,
      [&](std::int64_t b0, std::int64_t b1) {
        for (std::int64_t b = b0; b < b1; ++b)
          for (std::int64_t i = 0; i < tokens_ * dim_; ++i)
            y[b * tokens_ * dim_ + i] += table_.value[i];
      },
      kernels::rows_grain(tokens_ * dim_));
  return y;
}

Tensor PositionalEmbedding::forward(const Tensor& x, bool /*train*/) {
  return forward_eval(x, {});
}

Tensor PositionalEmbedding::backward(const Tensor& grad_out) {
  const std::int64_t batch = grad_out.size(0);
  table_.ensure_grad();
  // One writer per table slot; the batch is accumulated in ascending order
  // inside it, so the sum never depends on the slot partition.
  kernels::parallel_for(
      tokens_ * dim_,
      [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          float acc = 0.0f;
          for (std::int64_t b = 0; b < batch; ++b)
            acc += grad_out[b * tokens_ * dim_ + i];
          table_.grad[i] += acc;
        }
      },
      kernels::rows_grain(batch));
  return grad_out;
}

Tensor TokenMeanPool::forward_eval(const Tensor& x, const KernelTable&) const {
  CRISP_CHECK(x.dim() == 3, name() << " expects (B, T, D)");
  const std::int64_t batch = x.size(0), tokens = x.size(1), dim = x.size(2);
  Tensor y({batch, dim});
  const float inv = 1.0f / static_cast<float>(tokens);
  // Each sample owns its output row; tokens accumulate in ascending order.
  kernels::parallel_for(
      batch,
      [&](std::int64_t b0, std::int64_t b1) {
        for (std::int64_t b = b0; b < b1; ++b)
          for (std::int64_t t = 0; t < tokens; ++t)
            for (std::int64_t d = 0; d < dim; ++d)
              y[b * dim + d] += x[(b * tokens + t) * dim + d] * inv;
      },
      kernels::rows_grain(tokens * dim));
  return y;
}

Tensor TokenMeanPool::forward(const Tensor& x, bool train) {
  Tensor y = forward_eval(x, {});
  if (train) cached_in_shape_ = x.shape();
  return y;
}

Tensor TokenMeanPool::backward(const Tensor& grad_out) {
  CRISP_CHECK(!cached_in_shape_.empty(), name() << ": backward without forward");
  const std::int64_t batch = cached_in_shape_[0], tokens = cached_in_shape_[1],
                     dim = cached_in_shape_[2];
  Tensor dx(cached_in_shape_);
  const float inv = 1.0f / static_cast<float>(tokens);
  kernels::parallel_for(
      batch * tokens,
      [&](std::int64_t p0, std::int64_t p1) {
        for (std::int64_t bt = p0; bt < p1; ++bt) {
          const std::int64_t b = bt / tokens;
          for (std::int64_t d = 0; d < dim; ++d)
            dx[bt * dim + d] = grad_out[b * dim + d] * inv;
        }
      },
      kernels::rows_grain(dim));
  return dx;
}

TransformerBlock::TransformerBlock(std::string name, std::int64_t dim,
                                   std::int64_t heads, std::int64_t mlp_ratio,
                                   Rng& rng)
    : Layer(std::move(name)),
      ln1_(this->name() + ".ln1", dim),
      attn_(this->name() + ".attn", dim, heads, rng),
      ln2_(this->name() + ".ln2", dim),
      mlp_(this->name() + ".mlp") {
  mlp_.emplace<Linear>(this->name() + ".mlp.fc1", dim, dim * mlp_ratio, rng);
  mlp_.emplace<Gelu>(this->name() + ".mlp.gelu");
  mlp_.emplace<Linear>(this->name() + ".mlp.fc2", dim * mlp_ratio, dim, rng);
}

Tensor TransformerBlock::forward(const Tensor& x, bool train) {
  // y = x + attn(ln1(x))
  Tensor y = attn_.forward(ln1_.forward(x, train), train);
  y.add_(x);
  // z = y + mlp(ln2(y)); the MLP operates on (B*T, D) rows.
  const std::int64_t batch = y.size(0), tokens = y.size(1), dim = y.size(2);
  if (train) cached_token_shape_ = y.shape();
  Tensor h = ln2_.forward(y, train);
  h.reshape_inplace({batch * tokens, dim});
  Tensor z = mlp_.forward(h, train);
  z.reshape_inplace({batch, tokens, dim});
  z.add_(y);
  return z;
}

Tensor TransformerBlock::forward_eval(const Tensor& x,
                                      const KernelTable& table) const {
  // Same dataflow as forward(train=false), on the cache-free const path.
  Tensor y = attn_.forward_eval(ln1_.forward_eval(x, table), table);
  y.add_(x);
  const std::int64_t batch = y.size(0), tokens = y.size(1), dim = y.size(2);
  Tensor h = ln2_.forward_eval(y, table);
  h.reshape_inplace({batch * tokens, dim});
  Tensor z = mlp_.forward_eval(h, table);
  z.reshape_inplace({batch, tokens, dim});
  z.add_(y);
  return z;
}

Tensor TransformerBlock::backward(const Tensor& grad_out) {
  CRISP_CHECK(!cached_token_shape_.empty(),
              name() << ": backward without forward");
  const std::int64_t batch = cached_token_shape_[0],
                     tokens = cached_token_shape_[1],
                     dim = cached_token_shape_[2];
  // dz -> mlp path + residual.
  Tensor dmlp = grad_out.reshaped({batch * tokens, dim});
  Tensor dh = mlp_.backward(dmlp);
  dh.reshape_inplace({batch, tokens, dim});
  Tensor dy = ln2_.backward(dh);
  dy.add_(grad_out);
  // dy -> attention path + residual.
  Tensor dattn = attn_.backward(dy);
  Tensor dx = ln1_.backward(dattn);
  dx.add_(dy);
  return dx;
}

std::vector<Parameter*> TransformerBlock::parameters() {
  std::vector<Parameter*> ps = ln1_.parameters();
  auto ap = attn_.parameters();
  ps.insert(ps.end(), ap.begin(), ap.end());
  auto lp = ln2_.parameters();
  ps.insert(ps.end(), lp.begin(), lp.end());
  auto mp = mlp_.parameters();
  ps.insert(ps.end(), mp.begin(), mp.end());
  return ps;
}

std::vector<Layer*> TransformerBlock::children() {
  return {&ln1_, &attn_, &ln2_, &mlp_};
}

std::int64_t TransformerBlock::last_dense_macs() const {
  return mlp_.last_dense_macs();
}

std::int64_t TransformerBlock::last_sparse_macs() const {
  return mlp_.last_sparse_macs();
}

std::unique_ptr<Sequential> make_vit(const VitConfig& cfg) {
  CRISP_CHECK(cfg.input_size % cfg.patch == 0,
              "input size must be a multiple of the patch size");
  Rng rng(cfg.seed);
  auto model = std::make_unique<Sequential>("vit");

  Conv2dSpec embed;
  embed.in_channels = 3;
  embed.out_channels = cfg.dim;
  embed.kernel = cfg.patch;
  embed.stride = cfg.patch;
  embed.padding = 0;
  embed.bias = true;
  embed.prunable = false;  // stem-equivalent: excluded like conv stems
  model->emplace<Conv2d>("patch_embed", embed, rng);
  model->emplace<ToTokens>("to_tokens");

  const std::int64_t side = cfg.input_size / cfg.patch;
  model->emplace<PositionalEmbedding>("pos_embed", side * side, cfg.dim, rng);

  for (std::int64_t i = 0; i < cfg.depth; ++i)
    model->emplace<TransformerBlock>("block" + std::to_string(i), cfg.dim,
                                     cfg.heads, cfg.mlp_ratio, rng);

  model->emplace<LayerNorm>("final_ln", cfg.dim);
  model->emplace<TokenMeanPool>("pool");
  model->emplace<Linear>("head", cfg.dim, cfg.num_classes, rng);
  return model;
}

}  // namespace crisp::nn
