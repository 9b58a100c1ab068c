// CRISP hybrid storage format (paper Fig. 5 step 5 and Fig. 6).
//
// Two metadata structures compose:
//   * block level — Blocked-ELL style block-column indices, one uniform set
//     of surviving blocks per block-row;
//   * element level — inside every surviving block, each group of M
//     consecutive columns stores at most N values, each tagged with its
//     ceil(log2 M)-bit offset inside the group (2 bits for M = 4).
// Slot counts are fixed (N per group), so the accelerator's MUX-based
// activation selection (Fig. 6) needs no per-row bookkeeping — this is the
// load-balance property the paper trades against CSR/ELLPACK.
//
// The value payload can additionally (or instead) be carried as symmetric
// int8 with one fp32 scale per block-row (sparse/quantized.h), turning the
// metadata win into a bandwidth win: spmm_quantized dequantizes on the fly
// inside the dispatched crisp_block_i8 microkernel. docs/formats.md has the
// byte-level layout.
//
// This module is the one owner of the slot layout at execution time: every
// CRISP-layout spmm — fp32, int8, and tenant::OverlayMatrix's zero-copy
// block subset — runs spmm_blocks, which makes one dispatched microkernel
// call per (block-row, stored block).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "kernels/spmm_kernel.h"
#include "sparse/block.h"
#include "sparse/quantized.h"
#include "tensor/tensor.h"

namespace crisp::sparse {

class CrispMatrix : public kernels::SpmmKernel {
 public:
  /// Encodes a matrix already pruned to hybrid sparsity. Throws when a
  /// length-M group holds more than N non-zeros (input was not N:M sparse)
  /// or when surviving-block counts differ across block-rows (input was not
  /// uniformly block-pruned). Requires block % m == 0.
  static CrispMatrix encode(ConstMatrixView dense, std::int64_t block,
                            std::int64_t n, std::int64_t m);

  Tensor decode() const;
  /// Parallel over block-rows (each owns its band of output rows);
  /// bit-identical at any thread count. Runs the fp32 payload when present,
  /// otherwise the int8 path (spmm_quantized).
  void spmm(ConstMatrixView x, MatrixView y) const override;

  /// The dequantize-on-the-fly path: same block-row partitioning and
  /// accumulation order as spmm (so also bit-identical at any thread
  /// count), but each slot's coefficient is scale * int8, formed inside the
  /// dispatched crisp_block_i8 microkernel — a quarter of the weight-value
  /// traffic. Throws when no quantized payload is attached.
  void spmm_quantized(ConstMatrixView x, MatrixView y) const;

  /// The block-row loop behind spmm, spmm_quantized and
  /// tenant::OverlayMatrix. Multiplies the int8 payload when `int8`, else
  /// the fp32 one. `kept`, when non-null, is a bitmap over the stored
  /// blocks in restricted_to_blocks' layout and only its set blocks run;
  /// `kept_per_row` is how many that is per block-row (it sizes the
  /// parallel grain only). `row_scales`, when non-null, replaces the int8
  /// payload's per-block-row scales. Kept blocks run in stored order with
  /// their own slots, so a subset computes bit-identically to the
  /// restricted_to_blocks matrix it describes.
  void spmm_blocks(ConstMatrixView x, MatrixView y, bool int8,
                   const std::uint8_t* kept, std::int64_t kept_per_row,
                   const float* row_scales) const;

  /// Builds the int8 payload from the fp32 slots: symmetric quantization,
  /// one scale per block-row's slot band (see sparse/quantized.h for the
  /// error bound). Idempotent; requires the fp32 payload.
  void quantize_payload();
  /// Frees the fp32 slots; decode()/spmm() then serve from int8 only.
  /// Requires a quantized payload (attach first). Irreversible up to
  /// quantization error.
  void release_fp32_payload();

  bool has_fp32() const { return !values_.empty(); }
  bool has_quantized() const { return !qvalues_.empty(); }
  const QuantizedPayload& quantized_payload() const { return qvalues_; }

  /// Block-column indices + per-slot intra-group offsets.
  std::int64_t metadata_bits() const;
  /// Bits of every stored payload: 32 per fp32 slot when the fp32 payload
  /// is present, plus 8 per slot and 32 per scale when the int8 payload is.
  std::int64_t payload_bits() const;

  /// Binary persistence (host-endian, like tensor/serialize). `read` throws
  /// on truncation, an internally inconsistent header, or a quantized
  /// payload failing its CRC32C trailer. `payload_crc = false` selects the
  /// legacy trailer-less QuantizedPayload layout embedded in PackedModel
  /// v2 files — only that compatibility path should pass it.
  void write(std::ostream& os, bool payload_crc = true) const;
  static CrispMatrix read(std::istream& is, bool payload_crc = true);

  const BlockGrid& grid() const { return grid_; }
  std::int64_t rows() const override { return grid_.rows; }
  std::int64_t cols() const override { return grid_.cols; }
  const char* format_name() const override { return "crisp"; }
  std::int64_t blocks_per_row() const { return blocks_per_row_; }
  std::int64_t n() const { return n_; }
  std::int64_t m() const { return m_; }
  std::int64_t slot_count() const {
    return static_cast<std::int64_t>(offsets_.size());
  }

  /// Block-column index of every stored block, in stored order
  /// (block-rows ascending, surviving blocks ascending within a row).
  const std::vector<std::int32_t>& block_cols() const { return block_cols_; }
  /// Slots one surviving block spans: block * (block/m) * n.
  std::int64_t slots_per_block() const {
    return grid_.block * (grid_.block / m_) * n_;
  }
  /// Slots one block-row's surviving blocks span — the quantization group.
  std::int64_t slots_per_block_row() const;

  /// Copies out the sub-matrix that keeps, per block-row, exactly the
  /// stored blocks whose bit is set in `kept` — a bitmap over the block
  /// list (grid_rows x blocks_per_row positions, row-major, LSB-first
  /// within each byte; bits address list *positions*, not block columns).
  /// Every block-row must keep exactly `kept_per_row` blocks (the format's
  /// uniformity invariant; throws otherwise). Kept blocks carry their
  /// slots over verbatim — fp32 and/or int8, the int8 scales staying one
  /// per block-row — so the result computes bit-identically to this matrix
  /// restricted to those blocks. This is the tenant delta-apply path
  /// (tenant/mask_delta.h).
  CrispMatrix restricted_to_blocks(const std::vector<std::uint8_t>& kept,
                                   std::int64_t kept_per_row) const;

  /// Replaces the per-block-row dequantization scales — the tenant
  /// scale-override path (one cheap fp32 per block-row of re-calibration,
  /// no payload rewrite). Requires a quantized payload and exactly one
  /// scale per block-row. Only the int8 execution path reads scales; an
  /// fp32 payload, when present, still serves bit-exact.
  void override_row_scales(const std::vector<float>& scales);

 private:
  BlockGrid grid_;
  std::int64_t n_ = 0;
  std::int64_t m_ = 0;
  std::int64_t blocks_per_row_ = 0;
  std::vector<std::int32_t> block_cols_;  ///< grid_rows x blocks_per_row
  /// Per surviving block: block-side rows x (block/m groups) x n slots.
  /// Empty after release_fp32_payload() — qvalues_ then carries the values.
  std::vector<float> values_;
  std::vector<std::uint8_t> offsets_;     ///< offset in [0, m) per slot
  /// Optional int8 payload, one scale per block-row (see quantize_payload).
  QuantizedPayload qvalues_;
};

}  // namespace crisp::sparse
