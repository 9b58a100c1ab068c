#include "sparse/formats/crisp_format.h"

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>

#include "kernels/parallel_for.h"
#include "kernels/prefetch.h"
#include "kernels/simd_dispatch.h"
#include "sparse/metadata.h"
#include "tensor/pod_stream.h"

namespace crisp::sparse {

namespace {

constexpr const char* kCtx = "CrispMatrix::read";

}  // namespace

CrispMatrix CrispMatrix::encode(ConstMatrixView dense, std::int64_t block,
                                std::int64_t n, std::int64_t m) {
  CRISP_CHECK(block >= 1 && m >= 1 && n >= 1 && n <= m, "bad block/N:M");
  CRISP_CHECK(block % m == 0, "block side " << block
                                            << " must be a multiple of M = " << m);
  CrispMatrix out;
  out.grid_ = BlockGrid{dense.rows, dense.cols, block};
  out.n_ = n;
  out.m_ = m;
  const std::int64_t gr = out.grid_.grid_rows(), gc = out.grid_.grid_cols();

  std::vector<std::vector<std::int32_t>> survivors(static_cast<std::size_t>(gr));
  for (std::int64_t br = 0; br < gr; ++br)
    for (std::int64_t bc = 0; bc < gc; ++bc) {
      bool any = false;
      for (std::int64_t r = br * block;
           !any && r < br * block + out.grid_.row_extent(br); ++r)
        for (std::int64_t c = bc * block;
             c < bc * block + out.grid_.col_extent(bc); ++c)
          if (dense(r, c) != 0.0f) {
            any = true;
            break;
          }
      if (any)
        survivors[static_cast<std::size_t>(br)].push_back(
            static_cast<std::int32_t>(bc));
    }

  out.blocks_per_row_ = static_cast<std::int64_t>(survivors.front().size());
  for (const auto& s : survivors)
    CRISP_CHECK(static_cast<std::int64_t>(s.size()) == out.blocks_per_row_,
                "CRISP format requires uniform surviving blocks per row, got "
                    << s.size() << " vs " << out.blocks_per_row_);

  const std::int64_t groups = block / m;
  const std::int64_t slots_per_block = block * groups * n;
  const std::int64_t total_blocks = gr * out.blocks_per_row_;
  out.values_.assign(static_cast<std::size_t>(total_blocks * slots_per_block),
                     0.0f);
  out.offsets_.assign(static_cast<std::size_t>(total_blocks * slots_per_block),
                      0);
  out.block_cols_.reserve(static_cast<std::size_t>(total_blocks));

  std::int64_t blk = 0;
  for (std::int64_t br = 0; br < gr; ++br) {
    for (const std::int32_t bc : survivors[static_cast<std::size_t>(br)]) {
      out.block_cols_.push_back(bc);
      for (std::int64_t r = 0; r < out.grid_.row_extent(br); ++r) {
        for (std::int64_t g = 0; g < groups; ++g) {
          const std::int64_t base =
              ((blk * block + r) * groups + g) * n;  // first slot of the group
          const std::int64_t col0 = bc * block + g * m;
          std::int64_t slot = 0;
          for (std::int64_t o = 0; o < m && col0 + o < dense.cols; ++o) {
            const float v = dense(br * block + r, col0 + o);
            if (v == 0.0f) continue;
            CRISP_CHECK(slot < n, "group at row " << br * block + r << ", col "
                                                  << col0 << " violates " << n
                                                  << ":" << m << " sparsity");
            out.values_[static_cast<std::size_t>(base + slot)] = v;
            out.offsets_[static_cast<std::size_t>(base + slot)] =
                static_cast<std::uint8_t>(o);
            ++slot;
          }
        }
      }
      ++blk;
    }
  }
  return out;
}

Tensor CrispMatrix::decode() const {
  Tensor dense({grid_.rows, grid_.cols});
  // Serve the fp32 slots when present, else dequantize the int8 payload
  // up front (exact: one multiply per slot, no accumulation).
  std::vector<float> dequant;
  const std::vector<float>* vals = &values_;
  if (!has_fp32() && has_quantized()) {
    dequant = qvalues_.dequantized();
    vals = &dequant;
  }
  const std::int64_t block = grid_.block, groups = block / m_;
  std::int64_t blk = 0;
  for (std::int64_t br = 0; br < grid_.grid_rows(); ++br) {
    for (std::int64_t i = 0; i < blocks_per_row_; ++i, ++blk) {
      const std::int64_t bc = block_cols_[static_cast<std::size_t>(blk)];
      for (std::int64_t r = 0; r < grid_.row_extent(br); ++r) {
        for (std::int64_t g = 0; g < groups; ++g) {
          const std::int64_t base = ((blk * block + r) * groups + g) * n_;
          const std::int64_t col0 = bc * block + g * m_;
          for (std::int64_t s = 0; s < n_; ++s) {
            const float v = (*vals)[static_cast<std::size_t>(base + s)];
            if (v == 0.0f) continue;  // padded slot
            const std::int64_t col =
                col0 + offsets_[static_cast<std::size_t>(base + s)];
            dense[(br * block + r) * grid_.cols + col] = v;
          }
        }
      }
    }
  }
  return dense;
}

std::int64_t CrispMatrix::slots_per_block_row() const {
  const std::int64_t groups = grid_.block / m_;
  return blocks_per_row_ * grid_.block * groups * n_;
}

void CrispMatrix::quantize_payload() {
  CRISP_CHECK(has_fp32() || slot_count() == 0,
              "CrispMatrix::quantize_payload: fp32 payload already released");
  qvalues_ = QuantizedPayload::quantize(
      values_.data(), static_cast<std::int64_t>(values_.size()),
      std::max<std::int64_t>(slots_per_block_row(), 1));
}

void CrispMatrix::release_fp32_payload() {
  CRISP_CHECK(has_quantized() || slot_count() == 0,
              "CrispMatrix::release_fp32_payload: no quantized payload to "
              "fall back to (call quantize_payload first)");
  values_.clear();
  values_.shrink_to_fit();
}

void CrispMatrix::spmm(ConstMatrixView x, MatrixView y) const {
  spmm_blocks(x, y, !has_fp32() && has_quantized(), nullptr, blocks_per_row_,
              nullptr);
}

void CrispMatrix::spmm_quantized(ConstMatrixView x, MatrixView y) const {
  spmm_blocks(x, y, /*int8=*/true, nullptr, blocks_per_row_, nullptr);
}

void CrispMatrix::spmm_blocks(ConstMatrixView x, MatrixView y, bool int8,
                              const std::uint8_t* kept,
                              std::int64_t kept_per_row,
                              const float* row_scales) const {
  CRISP_CHECK(!int8 || has_quantized(),
              "CRISP spmm: no int8 payload attached");
  CRISP_CHECK(x.rows == grid_.cols, "CRISP spmm: inner dimension mismatch");
  CRISP_CHECK(y.rows == grid_.rows && y.cols == x.cols,
              "CRISP spmm: output shape");
  const std::int64_t block = grid_.block, p = x.cols;
  const std::int64_t spb = slots_per_block();
  // Block-rows own disjoint bands of output rows, so partitioning over them
  // keeps every output row single-writer and the result thread-count
  // independent.
  const std::int64_t grain = kernels::rows_grain(kept_per_row * spb * p);
  const auto& mk = kernels::simd::active();
  kernels::parallel_for(grid_.grid_rows(), [&](std::int64_t br0,
                                               std::int64_t br1) {
    for (std::int64_t br = br0; br < br1; ++br) {
      float* yb = y.data + br * block * p;
      std::memset(yb, 0, static_cast<std::size_t>(grid_.row_extent(br) * p) *
                             sizeof(float));
      kernels::simd::CrispBlock shape{nullptr, grid_.row_extent(br),
                                      block / m_, n_, m_};
      // One scale per block-row's slot band, unless the caller overrides it.
      const float scale =
          !int8 ? 0.0f
          : row_scales != nullptr
              ? row_scales[br]
              : qvalues_.scale_for(br * slots_per_block_row());
      for (std::int64_t i = 0; i < blocks_per_row_; ++i) {
        const std::int64_t blk = br * blocks_per_row_ + i;
        if (kept != nullptr && !((kept[blk >> 3] >> (blk & 7)) & 1u)) continue;
        const auto bc = block_cols_[static_cast<std::size_t>(blk)];
        // Block-level indirection: prefetch the next block's activation
        // band while this block multiplies (hint only).
        if (i + 1 < blocks_per_row_)
          kernels::prefetch_read(
              x.data +
              block_cols_[static_cast<std::size_t>(blk) + 1] * block * p);
        shape.offsets = offsets_.data() + blk * spb;
        const float* xb = x.data + bc * block * p;
        // The MUX step of Fig. 6, one dispatched call per stored block.
        if (int8)
          mk.crisp_block_i8(qvalues_.values.data() + blk * spb, scale, shape,
                            xb, yb, p);
        else
          mk.crisp_block(values_.data() + blk * spb, shape, xb, yb, p);
      }
    }
  }, grain);
}

CrispMatrix CrispMatrix::restricted_to_blocks(
    const std::vector<std::uint8_t>& kept, std::int64_t kept_per_row) const {
  const std::int64_t gr = grid_.grid_rows();
  const std::int64_t total_blocks = gr * blocks_per_row_;
  CRISP_CHECK(static_cast<std::int64_t>(kept.size()) == (total_blocks + 7) / 8,
              "restricted_to_blocks: bitmap holds " << kept.size() * 8
                  << " bits, matrix stores " << total_blocks << " blocks");
  CRISP_CHECK(kept_per_row >= 0 && kept_per_row <= blocks_per_row_,
              "restricted_to_blocks: kept_per_row " << kept_per_row
                  << " outside [0, " << blocks_per_row_ << "]");

  CrispMatrix out;
  out.grid_ = grid_;
  out.n_ = n_;
  out.m_ = m_;
  out.blocks_per_row_ = kept_per_row;
  const std::int64_t spb = slots_per_block();
  const std::int64_t out_slots = gr * kept_per_row * spb;
  const bool fp32 = has_fp32();
  const bool quant = has_quantized() && kept_per_row > 0;
  out.block_cols_.reserve(static_cast<std::size_t>(gr * kept_per_row));
  if (fp32) out.values_.reserve(static_cast<std::size_t>(out_slots));
  out.offsets_.reserve(static_cast<std::size_t>(out_slots));
  if (quant) {
    out.qvalues_.group_size = kept_per_row * spb;
    out.qvalues_.values.reserve(static_cast<std::size_t>(out_slots));
    out.qvalues_.scales.reserve(static_cast<std::size_t>(gr));
  }

  for (std::int64_t br = 0; br < gr; ++br) {
    std::int64_t row_kept = 0;
    for (std::int64_t i = 0; i < blocks_per_row_; ++i) {
      const std::int64_t blk = br * blocks_per_row_ + i;
      if (!(kept[static_cast<std::size_t>(blk >> 3)] &
            (1u << (blk & 7))))
        continue;
      ++row_kept;
      out.block_cols_.push_back(block_cols_[static_cast<std::size_t>(blk)]);
      const auto s0 = static_cast<std::size_t>(blk * spb);
      const auto s1 = s0 + static_cast<std::size_t>(spb);
      if (fp32)
        out.values_.insert(out.values_.end(), values_.begin() + s0,
                           values_.begin() + s1);
      out.offsets_.insert(out.offsets_.end(), offsets_.begin() + s0,
                          offsets_.begin() + s1);
      if (quant)
        out.qvalues_.values.insert(out.qvalues_.values.end(),
                                   qvalues_.values.begin() + s0,
                                   qvalues_.values.begin() + s1);
    }
    CRISP_CHECK(row_kept == kept_per_row,
                "restricted_to_blocks: block-row " << br << " keeps "
                    << row_kept << " blocks, expected " << kept_per_row
                    << " (CRISP requires uniform surviving blocks per row)");
    // The kept slots are a subset of the base band, so the base's
    // per-block-row scale still bounds them — reusing it keeps every kept
    // int8 slot dequantizing to the exact value the base computes.
    if (quant)
      out.qvalues_.scales.push_back(
          qvalues_.scale_for(br * slots_per_block_row()));
  }
  return out;
}

void CrispMatrix::override_row_scales(const std::vector<float>& scales) {
  CRISP_CHECK(has_quantized(),
              "override_row_scales: no quantized payload attached");
  CRISP_CHECK(static_cast<std::int64_t>(scales.size()) == grid_.grid_rows(),
              "override_row_scales: need one scale per block-row ("
                  << grid_.grid_rows() << "), got " << scales.size());
  CRISP_CHECK(static_cast<std::int64_t>(qvalues_.scales.size()) ==
                  grid_.grid_rows(),
              "override_row_scales: payload carries "
                  << qvalues_.scales.size() << " scale groups, expected one "
                  "per block-row");
  qvalues_.scales = scales;
}

std::int64_t CrispMatrix::metadata_bits() const {
  const std::int64_t block_bits =
      grid_.grid_rows() * blocks_per_row_ * bits_for_index(grid_.grid_cols());
  const std::int64_t offset_bits = slot_count() * bits_for_index(m_);
  return block_bits + offset_bits;
}

std::int64_t CrispMatrix::payload_bits() const {
  std::int64_t bits = 0;
  if (has_fp32()) bits += static_cast<std::int64_t>(values_.size()) * 32;
  if (has_quantized()) bits += qvalues_.payload_bits();
  return bits;
}

void CrispMatrix::write(std::ostream& os, bool payload_crc) const {
  io::write_pod(os, grid_.rows);
  io::write_pod(os, grid_.cols);
  io::write_pod(os, grid_.block);
  io::write_pod(os, n_);
  io::write_pod(os, m_);
  io::write_pod(os, blocks_per_row_);
  io::write_array(os, block_cols_);
  io::write_array(os, values_);  // size 0 after release_fp32_payload
  io::write_array(os, offsets_);
  io::write_pod(os, static_cast<std::uint8_t>(has_quantized() ? 1 : 0));
  if (has_quantized()) qvalues_.write(os, payload_crc);
}

CrispMatrix CrispMatrix::read(std::istream& is, bool payload_crc) {
  CrispMatrix out;
  out.grid_.rows = io::read_pod<std::int64_t>(is, kCtx);
  out.grid_.cols = io::read_pod<std::int64_t>(is, kCtx);
  out.grid_.block = io::read_pod<std::int64_t>(is, kCtx);
  out.n_ = io::read_pod<std::int64_t>(is, kCtx);
  out.m_ = io::read_pod<std::int64_t>(is, kCtx);
  out.blocks_per_row_ = io::read_pod<std::int64_t>(is, kCtx);
  CRISP_CHECK(out.grid_.rows > 0 && out.grid_.cols > 0 && out.grid_.block > 0 &&
                  out.n_ >= 1 && out.n_ <= out.m_ &&
                  out.grid_.block % out.m_ == 0 && out.blocks_per_row_ >= 0 &&
                  out.blocks_per_row_ <= out.grid_.grid_cols(),
              "CrispMatrix::read: inconsistent header");
  out.block_cols_ = io::read_array<std::int32_t>(is, kCtx);
  out.values_ = io::read_array<float>(is, kCtx);
  out.offsets_ = io::read_array<std::uint8_t>(is, kCtx);
  if (io::read_pod<std::uint8_t>(is, kCtx) != 0)
    out.qvalues_ = QuantizedPayload::read(is, payload_crc);

  const std::int64_t total_blocks = out.grid_.grid_rows() * out.blocks_per_row_;
  const std::int64_t slots =
      total_blocks * out.grid_.block * (out.grid_.block / out.m_) * out.n_;
  CRISP_CHECK(static_cast<std::int64_t>(out.block_cols_.size()) == total_blocks,
              "CrispMatrix::read: block index count mismatch");
  CRISP_CHECK(static_cast<std::int64_t>(out.offsets_.size()) == slots,
              "CrispMatrix::read: slot count mismatch");
  CRISP_CHECK(static_cast<std::int64_t>(out.values_.size()) == slots ||
                  out.values_.empty(),
              "CrispMatrix::read: fp32 slot count mismatch");
  if (out.has_quantized()) {
    CRISP_CHECK(out.qvalues_.slot_count() == slots,
                "CrispMatrix::read: quantized slot count mismatch");
    // spmm_quantized assumes one scale per block-row's slot band; a
    // foreign group size would silently select the wrong scales.
    CRISP_CHECK(out.qvalues_.group_size == out.slots_per_block_row(),
                "CrispMatrix::read: quantized group size "
                    << out.qvalues_.group_size << " != block-row band "
                    << out.slots_per_block_row());
  }
  CRISP_CHECK(slots == 0 || !out.values_.empty() || out.has_quantized(),
              "CrispMatrix::read: no value payload present");
  for (const std::int32_t bc : out.block_cols_)
    CRISP_CHECK(bc >= 0 && bc < out.grid_.grid_cols(),
                "CrispMatrix::read: block column out of range");
  for (const std::uint8_t o : out.offsets_)
    CRISP_CHECK(o < out.m_, "CrispMatrix::read: offset out of range");
  return out;
}

}  // namespace crisp::sparse
