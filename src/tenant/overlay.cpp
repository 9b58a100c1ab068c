#include "tenant/overlay.h"

#include <utility>

namespace crisp::tenant {

OverlayMatrix::OverlayMatrix(std::shared_ptr<const BaseArtifact> base,
                             std::shared_ptr<const MaskDelta> delta,
                             const std::string& name)
    : base_(std::move(base)), delta_(std::move(delta)) {
  CRISP_CHECK(base_ != nullptr && delta_ != nullptr,
              "OverlayMatrix: null base or delta");
  delta_->validate(*base_);
  entry_ = base_->find(name);
  CRISP_CHECK(entry_ != nullptr,
              "OverlayMatrix: base has no packed entry " << name);
  edelta_ = delta_->find(name);
  CRISP_CHECK(edelta_ != nullptr,
              "OverlayMatrix: delta has no entry " << name
                  << " — serve the base matrix directly instead");
}

std::int64_t OverlayMatrix::rows() const { return entry_->matrix.rows(); }
std::int64_t OverlayMatrix::cols() const { return entry_->matrix.cols(); }

bool OverlayMatrix::aliases_base_payload() const {
  // The kernel owns no slot storage; everything it multiplies with lives
  // in the base entry it points at. Both legs are pointer identity — if a
  // future change makes overlays copy (or rebind) payloads, this goes
  // false and the Store/bench zero-gate catches it.
  return entry_ == base_->find(entry_->name) &&
         edelta_ == delta_->find(entry_->name);
}

void OverlayMatrix::spmm(ConstMatrixView x, MatrixView y) const {
  // Kept blocks in stored order through the base's own block-row loop:
  // the identical microkernel calls the standalone restriction makes, so
  // outputs match it bitwise. Dropped blocks cost one bit test — no
  // payload is touched. The int8 path takes the tenant's per-block-row
  // scale overrides when set, else the base's band scales — the values the
  // standalone restriction carries.
  const sparse::CrispMatrix& bm = entry_->matrix;
  const bool int8 = !bm.has_fp32() && bm.has_quantized();
  const std::vector<float>& overrides = edelta_->scale_overrides;
  bm.spmm_blocks(x, y, int8, edelta_->kept_bits.data(), edelta_->kept_per_row,
                 int8 && !overrides.empty() ? overrides.data() : nullptr);
}

OverlayCompile compile_overlay(const serve::CompiledModel& base_model,
                               std::shared_ptr<const BaseArtifact> base,
                               std::shared_ptr<const MaskDelta> delta) {
  CRISP_CHECK(base != nullptr && delta != nullptr,
              "compile_overlay: null base or delta");
  CRISP_CHECK(base_model.packed() == &base->packed(),
              "compile_overlay: base_model was not compiled from this base");
  delta->validate(*base);

  OverlayCompile out;
  std::map<std::string, std::shared_ptr<const kernels::SpmmKernel>> kernels;
  for (const deploy::PackedEntry& e : base->packed().entries()) {
    if (delta->find(e.name) == nullptr) continue;
    auto overlay = std::make_shared<const OverlayMatrix>(base, delta, e.name);
    out.overlays.push_back(overlay);
    kernels.emplace(e.name, overlay);
  }
  out.model = base_model.substitute(kernels);
  return out;
}

}  // namespace crisp::tenant
