#include "serve/compiled_model.h"

#include <utility>

namespace crisp::serve {

namespace {

/// The weights of every single-GEMM layer in `layer`'s tree, in forward
/// order.
void collect_gemm_weights(nn::Layer& layer,
                          std::vector<const nn::Parameter*>& out) {
  if (const nn::Parameter* w = layer.gemm_weight()) out.push_back(w);
  for (nn::Layer* child : layer.children()) collect_gemm_weights(*child, out);
}

void check_binding(const nn::KernelBinding& b) {
  CRISP_CHECK(b.kernel != nullptr,
              "CompiledModel: null kernel for " << b.weight->name);
  CRISP_CHECK(b.kernel->rows() == b.weight->matrix_rows &&
                  b.kernel->cols() == b.weight->matrix_cols,
              "CompiledModel: " << b.weight->name << " expects "
                                << b.weight->matrix_rows << "x"
                                << b.weight->matrix_cols << ", kernel holds "
                                << b.kernel->rows() << "x"
                                << b.kernel->cols());
}

}  // namespace

CompiledModel::CompiledModel(std::shared_ptr<const nn::Sequential> model,
                             std::shared_ptr<const deploy::PackedModel> packed,
                             nn::KernelTable table)
    : model_(std::move(model)),
      packed_(std::move(packed)),
      table_(std::move(table)) {
  packed_layers_.reserve(table_.size());
  for (const nn::KernelBinding& b : table_)
    packed_layers_.push_back(b.weight->name);
}

std::shared_ptr<const CompiledModel> CompiledModel::compile(
    std::shared_ptr<nn::Sequential> model,
    std::shared_ptr<const deploy::PackedModel> packed, CompileOptions options) {
  CRISP_CHECK(model != nullptr, "CompiledModel::compile: null model");
  if (options.quantize_payload) {
    CRISP_CHECK(packed != nullptr,
                "CompiledModel::compile: quantize_payload needs a packed "
                "artifact");
    if (!packed->serves_int8()) {
      // Private int8 copy: the caller's artifact stays fp32, and the
      // compiled model co-owns the quantized one like any other compile.
      // serves_int8 (not quantized) is the gate — a keep_fp32 artifact
      // carries int8 slots but spmm() would still execute its fp32 payload.
      auto q = std::make_shared<deploy::PackedModel>(*packed);
      q->quantize_payloads(/*keep_fp32=*/false);
      packed = std::move(q);
    }
  }
  nn::KernelTable table;
  if (packed != nullptr) {
    std::vector<const nn::Parameter*> weights;
    collect_gemm_weights(*model, weights);
    for (const nn::Parameter* w : weights) {
      const deploy::PackedEntry* entry = packed->find(w->name);
      if (entry == nullptr) continue;
      // Aliasing shared_ptr: the kernel is the entry's CrispMatrix, but the
      // refcount (and lifetime) is the whole artifact's.
      table.push_back({w, std::shared_ptr<const kernels::SpmmKernel>(
                              packed, &entry->matrix)});
      check_binding(table.back());
    }
  }
  return std::shared_ptr<const CompiledModel>(
      new CompiledModel(std::move(model), std::move(packed), std::move(table)));
}

std::shared_ptr<const CompiledModel> CompiledModel::substitute(
    const std::map<std::string, std::shared_ptr<const kernels::SpmmKernel>>&
        kernels) const {
  nn::KernelTable table = table_;
  for (nn::KernelBinding& b : table) {
    auto it = kernels.find(b.weight->name);
    if (it == kernels.end()) continue;
    b.kernel = it->second;
    check_binding(b);
  }
  return std::shared_ptr<const CompiledModel>(
      new CompiledModel(model_, packed_, std::move(table)));
}

}  // namespace crisp::serve
