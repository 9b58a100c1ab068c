// Layer interface with explicit (manual) backpropagation.
//
// The pruning framework needs exactly three things from the NN substrate:
// forward activations, per-weight gradients, and masked execution with
// straight-through-estimator (STE) updates. Layers therefore implement
// forward/backward by hand (verified by finite-difference tests) instead of
// a general autograd.
//
// Masking contract (paper §III-C): every prunable Parameter may carry a
// binary mask of its own shape. Forward always computes with value ⊙ mask;
// backward produces the gradient of the loss w.r.t. the *effective* weight
// and stores it as the gradient of the dense weight — that is precisely the
// straight-through estimator, so pruned weights keep receiving gradient and
// can be revived when masks are re-selected.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace crisp::kernels {
class SpmmKernel;
}

namespace crisp::nn {

struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;  ///< empty until the first backward (see ensure_grad)
  Tensor mask;  ///< empty ⇒ dense; otherwise 0/1, same shape as value

  /// Weights eligible for CRISP pruning (conv/linear kernels, not biases).
  bool prunable = false;
  /// Matrix interpretation of `value` for pruning: the paper's reshaped
  /// S x K weight matrix (rows = output channels, cols = reduction).
  std::int64_t matrix_rows = 0;
  std::int64_t matrix_cols = 0;

  bool has_mask() const { return !mask.empty(); }

  /// Creates an all-ones mask if none exists.
  void ensure_mask();

  /// Creates a zero gradient if none exists. Layers build their parameters
  /// without one and backward allocates it on first use, so a model that is
  /// only packed, compiled or served never holds gradient memory.
  void ensure_grad();

  /// value ⊙ mask when masked, otherwise a copy of value.
  Tensor effective_value() const;

  /// Permanently zeroes masked-out entries of the dense value (deployment).
  void bake_mask();

  /// Fraction of zeros in the mask (0 when dense).
  double mask_sparsity() const;

  MatrixView value_matrix();
  ConstMatrixView value_matrix() const;
  MatrixView mask_matrix();
  MatrixView grad_matrix();
};

/// One packed layer of an eval forward: the GEMM layer whose weight is
/// `weight` multiplies with `kernel` (y = W_eff · x over its lowered
/// (K x P) input) instead of its dense weight. The kernel must encode that
/// weight's current effective value and be const-thread-safe — the
/// batch-parallel conv forward calls it concurrently; every SpmmKernel in
/// this library is.
struct KernelBinding {
  const Parameter* weight = nullptr;
  std::shared_ptr<const kernels::SpmmKernel> kernel;
};

/// The packed-execution binding forward_eval runs under: resolved once
/// (serve::CompiledModel::compile) and read-only afterwards, so one model
/// can serve any number of tables — dense, fp32, int8, one per tenant — at
/// the same time. An empty table is the dense eval forward.
using KernelTable = std::vector<KernelBinding>;

/// The kernel bound to `weight`, or nullptr (dense) — a pointer compare per
/// binding, no name lookup and no allocation.
const kernels::SpmmKernel* find_kernel(const KernelTable& table,
                                       const Parameter* weight);

/// Named non-trainable state (BatchNorm running statistics).
struct NamedBuffer {
  std::string name;
  Tensor* tensor = nullptr;
};

class Layer {
 public:
  explicit Layer(std::string name) : name_(std::move(name)) {}
  virtual ~Layer() = default;

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// `train` toggles BatchNorm statistics and activation caching.
  virtual Tensor forward(const Tensor& x, bool train) = 0;

  /// Side-effect-free eval forward: computes exactly what
  /// forward(x, /*train=*/false) computes, but touches no activation
  /// caches, records no MAC counters, and updates no statistics — so a
  /// model frozen for serving can run it concurrently from many threads.
  /// GEMM layers whose weight is bound in `table` multiply through the
  /// bound kernel instead of the dense weight; containers pass the table
  /// down unchanged. The serving layer (serve::CompiledModel) is built on
  /// this path. The base implementation throws; every layer in this
  /// library overrides it.
  virtual Tensor forward_eval(const Tensor& x, const KernelTable& table) const;

  /// Consumes d(loss)/d(output), accumulates parameter gradients, and
  /// returns d(loss)/d(input). Must be called after a forward with
  /// train=true on the same input.
  ///
  /// Threading contract (mirrors the forward path): every layer's backward
  /// runs through crisp::kernels — batch/row/channel-parallel loops with
  /// single-writer outputs, and per-chunk accumulators merged by
  /// kernels::parallel_accumulate's fixed-order tree wherever many samples
  /// feed one parameter gradient — so gradients are bit-identical at any
  /// kernels::num_threads() (tests/test_backward_threading.cpp).
  virtual Tensor backward(const Tensor& grad_out) = 0;

  virtual std::vector<Parameter*> parameters() { return {}; }
  virtual std::vector<NamedBuffer> buffers() { return {}; }

  /// Direct sub-layers (containers/blocks); leaves return {}. Enables
  /// whole-model walks (per-layer FLOPs, sparsity census) without RTTI.
  virtual std::vector<Layer*> children() { return {}; }

  /// The weight of a layer whose eval forward lowers to a single GEMM —
  /// the only layers a KernelTable can bind (Linear, and Conv2d with
  /// groups == 1). nullptr for everything else, so grouped convs stay on
  /// their dense weights. Training forwards never consult a kernel (STE
  /// needs the dense weights).
  virtual const Parameter* gemm_weight() const { return nullptr; }

  const std::string& name() const { return name_; }

  void zero_grad();

  /// MAC counts recorded by the most recent forward (GEMM layers only).
  /// dense = as if no mask; sparse = counting only unmasked weights.
  /// Containers and blocks override these to sum their children.
  virtual std::int64_t last_dense_macs() const { return last_dense_macs_; }
  virtual std::int64_t last_sparse_macs() const { return last_sparse_macs_; }

 protected:
  void record_macs(std::int64_t dense, std::int64_t sparse) {
    last_dense_macs_ = dense;
    last_sparse_macs_ = sparse;
  }

 private:
  std::string name_;
  std::int64_t last_dense_macs_ = 0;
  std::int64_t last_sparse_macs_ = 0;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace crisp::nn
