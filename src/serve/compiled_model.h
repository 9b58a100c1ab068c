// Immutable inference artifact — the serving layer's unit of deployment.
//
// A CompiledModel freezes a trained (optionally CRISP-pruned-and-packed)
// network into an eval-only form that many threads can run concurrently:
//   * shared ownership of the nn::Sequential and of the PackedModel, so
//     whatever the compiled model executes, it keeps alive;
//   * a kernel table (nn::KernelTable) resolved once at compile time that
//     binds each packed GEMM layer's weight to its SpmmKernel, so eval
//     forwards multiply with the CRISP format directly;
//   * execution through the const forward_eval(x, table) path
//     (nn/layer.h), which touches no training caches, no MAC counters, no
//     statistics — and no state in the model itself. compile() leaves the
//     caller's model exactly as it was, and one model can back any number
//     of compiled artifacts at once (dense, fp32, int8, and every tenant
//     of a tenant::Store).
//
// serve::Engine (serve/engine.h) schedules, batches, and admission-
// controls requests on top of this artifact (docs/serving.md);
// CompiledModel itself is the synchronous core — and the unit of
// capacity: one full-batch run() is what the load harness calibrates
// saturation from (bench/loadgen.cpp).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "deploy/packed_model.h"
#include "kernels/spmm_kernel.h"
#include "nn/sequential.h"

namespace crisp::serve {

/// Knobs resolved once at compile time — a CompiledModel never changes how
/// it executes after compile() returns.
struct CompileOptions {
  /// Serve the packed entries from an int8 value payload (symmetric,
  /// per-block-row scales — sparse/quantized.h). When the supplied
  /// artifact is not already quantized, compile() builds a private
  /// quantized copy and serves that, so the caller's artifact is untouched
  /// and fp32 and int8 engines can share one source PackedModel. Outputs
  /// differ from the fp32 compile by at most the propagated per-scale
  /// quantization error; they stay bit-identical across thread counts.
  /// Requires `packed` != nullptr.
  bool quantize_payload = false;
};

class CompiledModel {
 public:
  /// Freezes `model` for serving. When `packed` is given, each of its
  /// entries is bound to the GEMM layer whose weight carries the entry's
  /// name (shape-checked; grouped convs fall back to dense eval), and the
  /// artifact is co-owned by the compiled model. `model` itself is not
  /// modified, but it is referenced, not copied: the caller must stop
  /// mutating it (training, re-masking) for as long as the CompiledModel
  /// serves — shared ownership covers lifetime, the const run() surface
  /// covers the serving side.
  static std::shared_ptr<const CompiledModel> compile(
      std::shared_ptr<nn::Sequential> model,
      std::shared_ptr<const deploy::PackedModel> packed = nullptr,
      CompileOptions options = {});

  /// This artifact with the kernels of some packed layers replaced, keyed
  /// by parameter name — the tenant overlay path (tenant/overlay.h). The
  /// result shares this artifact's model and packed artifact (pointer
  /// identity, no copy of either) and co-owns the replacement kernels,
  /// which are shape-checked like compile()'s. Names this artifact does
  /// not serve packed (grouped convs) are ignored, so those layers stay on
  /// the model's dense weights, exactly as compile() leaves them.
  std::shared_ptr<const CompiledModel> substitute(
      const std::map<std::string, std::shared_ptr<const kernels::SpmmKernel>>&
          kernels) const;

  /// Eval forward of a batch whose leading dimension is the batch axis.
  /// Const-thread-safe: any number of threads may run concurrently.
  Tensor run(const Tensor& batch) const {
    return model_->forward_eval(batch, table_);
  }

  /// Parameter names served from the packed representation (empty for a
  /// dense compile).
  const std::vector<std::string>& packed_layers() const {
    return packed_layers_;
  }
  bool has_packed() const { return packed_ != nullptr; }
  /// True when the packed layers actually execute from the int8 payload
  /// (either the caller's artifact was int8-only already or CompileOptions
  /// asked for it). False for a dense compile, and false for a keep_fp32
  /// artifact — its kernels run the fp32 slots.
  bool quantized() const {
    return packed_ != nullptr && packed_->serves_int8();
  }
  /// The model every run() executes — shared, by pointer identity, with
  /// every artifact substitute()d from this one.
  const nn::Sequential& model() const { return *model_; }
  /// The artifact the packed layers execute from — the compile-time
  /// quantized copy when CompileOptions::quantize_payload built one. Null
  /// for a dense compile.
  const deploy::PackedModel* packed() const { return packed_.get(); }

 private:
  CompiledModel(std::shared_ptr<const nn::Sequential> model,
                std::shared_ptr<const deploy::PackedModel> packed,
                nn::KernelTable table);

  std::shared_ptr<const nn::Sequential> model_;
  std::shared_ptr<const deploy::PackedModel> packed_;
  nn::KernelTable table_;  ///< co-owns every kernel run() binds
  std::vector<std::string> packed_layers_;
};

}  // namespace crisp::serve
