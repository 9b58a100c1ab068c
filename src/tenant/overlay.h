// Zero-copy tenant execution: a delta overlaid on the shared base arena.
//
// OverlayMatrix is an SpmmKernel that executes one packed entry restricted
// to a tenant's kept blocks *in place*: it walks the base CrispMatrix's
// block list, skips blocks the delta dropped, and multiplies with the
// base's own value slots and offsets — nothing is copied, the per-tenant
// state is the delta's bitmap (and optional per-block-row scales). The
// shared_ptrs to the BaseArtifact and MaskDelta ride in the kernel, so a
// compiled tenant keeps exactly what it executes from alive.
//
// Equivalence contract (locked in by tests/test_tenant.cpp): an overlay
// runs CrispMatrix::spmm_blocks over the base with the delta's kept-block
// bitmap, which issues the identical per-block microkernel calls as the
// standalone restriction MaskDelta::apply() builds — kept blocks in stored
// order, same accumulation order, same per-block-row scales on the int8
// path — so both produce bit-identical outputs, at any thread count (the
// usual block-row single-writer argument of the CRISP kernels).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "serve/compiled_model.h"
#include "tenant/mask_delta.h"

namespace crisp::tenant {

class OverlayMatrix final : public kernels::SpmmKernel {
 public:
  /// Builds the overlay for packed entry `name`. The delta must validate
  /// against the base and carry an entry for `name` (use the base matrix
  /// directly — no overlay needed — when a parameter has no delta entry).
  OverlayMatrix(std::shared_ptr<const BaseArtifact> base,
                std::shared_ptr<const MaskDelta> delta,
                const std::string& name);

  /// Same block-row partitioning (and thread-count-independence argument)
  /// as CrispMatrix::spmm; runs the base's fp32 slots when present,
  /// otherwise the int8 payload with the delta's scale overrides (when
  /// set) replacing the base's per-block-row scales.
  void spmm(ConstMatrixView x, MatrixView y) const override;

  std::int64_t rows() const override;
  std::int64_t cols() const override;
  const char* format_name() const override { return "crisp-overlay"; }

  std::int64_t kept_per_row() const { return edelta_->kept_per_row; }
  /// True when this kernel executes the base's payload storage itself
  /// (pointer identity with the base entry) — the masks-not-models
  /// invariant. tenant::Store sums the failures as excess_base_copies(),
  /// which bench/tenants.cpp gates at exactly zero; if overlay compilation
  /// ever regresses to copying payloads, that gate trips.
  bool aliases_base_payload() const;

 private:
  std::shared_ptr<const BaseArtifact> base_;
  std::shared_ptr<const MaskDelta> delta_;
  const deploy::PackedEntry* entry_ = nullptr;  ///< into base_'s artifact
  const EntryDelta* edelta_ = nullptr;          ///< into delta_
};

/// A compiled tenant: the serving artifact plus the overlay kernels it
/// executes through (kept so tenant::Store can audit aliasing).
struct OverlayCompile {
  std::shared_ptr<const serve::CompiledModel> model;
  std::vector<std::shared_ptr<const OverlayMatrix>> overlays;
};

/// Compiles tenant `delta` against `base`: `base_model` — the base's own
/// CompiledModel, compiled from base->packed_ptr() (tenant::Store builds
/// it once) — with every packed entry that has a delta entry served
/// through an OverlayMatrix instead of the base's CrispMatrix. Everything
/// else is base_model's and shared by pointer, not copied: the model and
/// its dense state, the kernels of the entries the delta leaves alone, and
/// the dense fallback of grouped convs.
OverlayCompile compile_overlay(const serve::CompiledModel& base_model,
                               std::shared_ptr<const BaseArtifact> base,
                               std::shared_ptr<const MaskDelta> delta);

}  // namespace crisp::tenant
