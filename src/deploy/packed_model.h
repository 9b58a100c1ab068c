// Packed deployment artifact — Fig. 5 step 5 applied to a whole model.
//
// After CRISP pruning, every prunable weight matrix satisfies the hybrid
// pattern and compresses into the CRISP storage format (block-column
// indices + N:M offset metadata, sparse/formats/crisp_format.h). A
// PackedModel bundles those compressed matrices with the model's remaining
// dense state (biases, BatchNorm parameters and running statistics,
// non-prunable weights) into a single artifact that can be saved, shipped
// to the edge device, and either decoded back into a model or executed
// directly through the packed GEMM kernels (serve::CompiledModel binds each
// entry's CrispMatrix to its layer — serve/compiled_model.h).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/sequential.h"
#include "sparse/formats/crisp_format.h"

namespace crisp::deploy {

struct PackedEntry {
  std::string name;                 ///< parameter name ("stage3.conv2.weight")
  std::vector<std::int64_t> shape;  ///< original tensor shape (S,R,kh,kw)
  sparse::CrispMatrix matrix;       ///< hybrid-encoded effective weight
};

/// Storage breakdown in bits. "dense" sizes assume 32-bit floats; payload
/// bits reflect what each entry actually stores (fp32 slots, int8 slots +
/// scales after quantize_payloads, or both).
struct PackedStats {
  std::int64_t model_dense_bits = 0;    ///< every parameter + buffer, dense
  std::int64_t packed_payload_bits = 0; ///< stored value slots (fp32/int8)
  std::int64_t packed_metadata_bits = 0;///< block indices + intra-M offsets
  std::int64_t carried_dense_bits = 0;  ///< state that stays dense
  std::int64_t total_bits() const {
    return packed_payload_bits + packed_metadata_bits + carried_dense_bits;
  }
  /// total packed size / dense size — the shipping-size reduction.
  double compression() const {
    return model_dense_bits == 0
               ? 1.0
               : static_cast<double>(total_bits()) /
                     static_cast<double>(model_dense_bits);
  }
};

class PackedModel {
 public:
  /// Compresses `model`. Every prunable parameter that carries a mask is
  /// encoded as a CrispMatrix over its effective (masked) values; `block`,
  /// `n`, `m` must match the pruner configuration or encoding throws
  /// (pattern violation). Unmasked parameters and all buffers are carried
  /// dense.
  static PackedModel pack(nn::Sequential& model, std::int64_t block,
                          std::int64_t n, std::int64_t m);

  /// Assembles an artifact from already-encoded entries plus the dense
  /// state they ride with — the tenant delta-apply path
  /// (tenant::MaskDelta::apply), which restricts a base artifact's
  /// matrices without round-tripping through a model. Every entry must
  /// match the stated N:M geometry and its own declared shape.
  static PackedModel assemble(std::int64_t block, std::int64_t n,
                              std::int64_t m,
                              std::vector<PackedEntry> entries,
                              TensorMap dense_state);

  /// Binary round-trip. `load` throws on missing file, bad magic/version,
  /// truncation, trailing bytes after the artifact, or (v3) a CRC32C
  /// mismatch. Format v3 trails the whole stream — and every embedded
  /// quantized payload — with a CRC32C; v2 files (no checksums) still
  /// load, with crc_verified() == false. v1 files lack the int8 payload
  /// flag and are rejected; re-pack from the source model. The `version`
  /// parameter exists so compatibility tests can write the legacy v2
  /// layout — production callers always write the default.
  void save(const std::string& path, std::uint32_t version = 3) const;
  static PackedModel load(const std::string& path);

  /// True when load() verified a CRC32C trailer (v3 files). False for a
  /// legacy v2 load and for artifacts built in-process (pack/assemble) —
  /// there was no stream whose integrity could be checked.
  bool crc_verified() const { return crc_verified_; }

  /// Re-encodes every entry's value payload as symmetric int8 with one
  /// scale per block-row (sparse/quantized.h). With keep_fp32 the fp32
  /// slots stay too (the artifact serves bit-exact fp32 and can still ship
  /// int8 sizes); without it they are dropped, shrinking the artifact to
  /// roughly a quarter of its payload bytes — execution, decode, and
  /// unpack_into then run from int8 within the per-scale error bound.
  void quantize_payloads(bool keep_fp32 = false);

  /// True when every packed entry carries an int8 payload (false for an
  /// artifact with no packed entries — there is nothing quantized to serve).
  bool quantized() const;

  /// True when every packed entry *executes* from int8: it carries a
  /// quantized payload and its fp32 slots are released (spmm() prefers
  /// fp32 whenever present, so a keep_fp32 artifact is quantized() but not
  /// serves_int8()).
  bool serves_int8() const;

  /// Decodes the artifact back into `model`: packed entries become masked
  /// weights (mask = surviving pattern, so sparse MAC accounting and
  /// further fine-tuning keep working), dense state restores verbatim.
  /// Throws if `model`'s architecture does not match the artifact.
  void unpack_into(nn::Sequential& model) const;

  const std::vector<PackedEntry>& entries() const { return entries_; }
  const TensorMap& dense_state() const { return dense_; }
  /// nullptr when `name` is not packed.
  const PackedEntry* find(const std::string& name) const;

  PackedStats stats() const;

  std::int64_t n() const { return n_; }
  std::int64_t m() const { return m_; }
  std::int64_t block() const { return block_; }

 private:
  std::int64_t n_ = 0, m_ = 0, block_ = 0;
  std::vector<PackedEntry> entries_;
  TensorMap dense_;
  bool crc_verified_ = false;
};

}  // namespace crisp::deploy
