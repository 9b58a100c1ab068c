#include "tenant/overlay.h"

#include <cstring>
#include <utility>

#include "kernels/parallel_for.h"
#include "kernels/prefetch.h"
#include "kernels/simd_dispatch.h"

namespace crisp::tenant {

namespace {

bool bit_set(const std::vector<std::uint8_t>& bits, std::int64_t pos) {
  return (bits[static_cast<std::size_t>(pos >> 3)] >> (pos & 7)) & 1u;
}

}  // namespace

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
  const sparse::CrispMatrix& bm = entry_->matrix;
  if (!bm.has_fp32() && bm.has_quantized()) {
    spmm_int8(x, y);
    return;
  }
  spmm_fp32(x, y);
}

void OverlayMatrix::spmm_fp32(ConstMatrixView x, MatrixView y) const {
  const sparse::CrispMatrix& bm = entry_->matrix;
  CRISP_CHECK(x.rows == bm.cols(), "overlay spmm: inner dimension mismatch");
  CRISP_CHECK(y.rows == bm.rows() && y.cols == x.cols,
              "overlay spmm: output shape");
  const sparse::BlockGrid& grid = bm.grid();
  const std::int64_t block = grid.block, groups = block / bm.m(),
                     n = bm.n(), p = x.cols;
  const std::int64_t bpr = bm.blocks_per_row();
  const std::vector<std::uint8_t>& kept = edelta_->kept_bits;
  const std::int32_t* bcols = bm.block_cols().data();
  const float* values = bm.fp32_values().data();
  const std::uint8_t* offsets = bm.slot_offsets().data();
  // Kept blocks in stored order: the identical axpy sequence the
  // standalone restriction runs, so outputs match it bitwise. Dropped
  // blocks cost one bit test — no payload is touched.
  const std::int64_t grain =
      kernels::rows_grain(edelta_->kept_per_row * block * groups * n * p);
  const auto axpy = kernels::simd::active().axpy;
  kernels::parallel_for(grid.grid_rows(), [&](std::int64_t br0,
                                              std::int64_t br1) {
    for (std::int64_t br = br0; br < br1; ++br) {
      std::memset(y.data + br * block * p, 0,
                  static_cast<std::size_t>(grid.row_extent(br) * p) *
                      sizeof(float));
      for (std::int64_t i = 0; i < bpr; ++i) {
        const std::int64_t blk = br * bpr + i;
        if (!bit_set(kept, blk)) continue;
        const std::int64_t bc = bcols[blk];
        kernels::prefetch_read(x.data + bc * block * p);
        for (std::int64_t r = 0; r < grid.row_extent(br); ++r) {
          float* yrow = y.data + (br * block + r) * p;
          for (std::int64_t g = 0; g < groups; ++g) {
            const std::int64_t base = ((blk * block + r) * groups + g) * n;
            const std::int64_t col0 = bc * block + g * bm.m();
            for (std::int64_t s = 0; s < n; ++s) {
              const float v = values[static_cast<std::size_t>(base + s)];
              if (v == 0.0f) continue;
              axpy(v,
                   x.data +
                       (col0 + offsets[static_cast<std::size_t>(base + s)]) *
                           p,
                   yrow, p);
            }
          }
        }
      }
    }
  }, grain);
}

void OverlayMatrix::spmm_int8(ConstMatrixView x, MatrixView y) const {
  const sparse::CrispMatrix& bm = entry_->matrix;
  CRISP_CHECK(bm.has_quantized(), "overlay spmm_int8: no int8 payload");
  CRISP_CHECK(x.rows == bm.cols(),
              "overlay spmm_int8: inner dimension mismatch");
  CRISP_CHECK(y.rows == bm.rows() && y.cols == x.cols,
              "overlay spmm_int8: output shape");
  const sparse::BlockGrid& grid = bm.grid();
  const std::int64_t block = grid.block, groups = block / bm.m(),
                     n = bm.n(), p = x.cols;
  const std::int64_t bpr = bm.blocks_per_row();
  const std::vector<std::uint8_t>& kept = edelta_->kept_bits;
  const std::int32_t* bcols = bm.block_cols().data();
  const std::int8_t* qv = bm.quantized_payload().values.data();
  const std::uint8_t* offsets = bm.slot_offsets().data();
  const std::vector<float>& overrides = edelta_->scale_overrides;
  const std::int64_t grain =
      kernels::rows_grain(edelta_->kept_per_row * block * groups * n * p);
  const auto axpy_i8 = kernels::simd::active().axpy_i8;
  kernels::parallel_for(grid.grid_rows(), [&](std::int64_t br0,
                                              std::int64_t br1) {
    for (std::int64_t br = br0; br < br1; ++br) {
      std::memset(y.data + br * block * p, 0,
                  static_cast<std::size_t>(grid.row_extent(br) * p) *
                      sizeof(float));
      // Per-block-row scale: the tenant's override when set, else the
      // base's band scale — the same value the standalone restriction
      // carries, keeping the two paths bit-identical.
      const float scale =
          overrides.empty()
              ? bm.quantized_payload().scale_for(br * bm.slots_per_block_row())
              : overrides[static_cast<std::size_t>(br)];
      for (std::int64_t i = 0; i < bpr; ++i) {
        const std::int64_t blk = br * bpr + i;
        if (!bit_set(kept, blk)) continue;
        const std::int64_t bc = bcols[blk];
        kernels::prefetch_read(x.data + bc * block * p);
        for (std::int64_t r = 0; r < grid.row_extent(br); ++r) {
          float* yrow = y.data + (br * block + r) * p;
          for (std::int64_t g = 0; g < groups; ++g) {
            const std::int64_t base = ((blk * block + r) * groups + g) * n;
            const std::int64_t col0 = bc * block + g * bm.m();
            for (std::int64_t s = 0; s < n; ++s) {
              const std::int8_t q = qv[static_cast<std::size_t>(base + s)];
              if (q == 0) continue;
              axpy_i8(q, scale,
                      x.data +
                          (col0 +
                           offsets[static_cast<std::size_t>(base + s)]) *
                              p,
                      yrow, p);
            }
          }
        }
      }
    }
  }, grain);
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
