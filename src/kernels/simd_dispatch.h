// Runtime-dispatched SIMD microkernels behind the dense GEMM and every
// SpmmKernel inner loop.
//
// The kernel layer is ISA-agnostic: gemm.cpp and the four sparse formats
// drive blocking, packing and parallel partitioning, then call the
// primitives below through the Microkernels table returned by active().
// Three implementations exist:
//   * scalar  — the always-correct fallback, bit-identical to the pre-SIMD
//               kernels (same loop structure, same zero-skips);
//   * avx2    — 8-lane float FMA (compiled only on x86-64, used only when
//               the CPU reports AVX2+FMA at startup);
//   * neon    — 4-lane float FMA (aarch64, where NEON is baseline).
//
// The tier is resolved once at first use: compile-time availability ∩
// runtime CPU features, minus the CRISP_DISABLE_SIMD override (environment
// variable, or baked in with -DCRISP_DISABLE_SIMD=ON at configure time).
// set_tier() lets tests and benches force the scalar path in-process to
// measure and verify both sides of the dispatch.
//
// Determinism contract: every implementation is a pure function of its
// arguments with a fixed accumulation order, so kernels stay bit-identical
// across thread counts *within* a tier. Across tiers results may differ by
// rounding only (FMA contraction, vectorized reduction trees); the parity
// tests in tests/test_kernels.cpp bound that to a tight tolerance.
#pragma once

#include <cstdint>

namespace crisp::kernels::simd {

enum class Tier { kScalar = 0, kAvx2 = 1, kNeon = 2 };

/// Row-block height of the packed-A panel fed to gemm_panel. Packing
/// buffers are sized kMr * kKc; tests pick shapes straddling this.
constexpr std::int64_t kMr = 4;

/// One stored CRISP block (sparse/formats/crisp_format.h) as its
/// microkernel sees it: `rows` block rows, each holding `groups` groups of
/// `n` slots; slot k of row r sits at index r * groups * n + k of the
/// block's value and offset arrays, and its MUX offset (in [0, m)) selects
/// activation row g * m + offset of the block's column band.
struct CrispBlock {
  const std::uint8_t* offsets;
  std::int64_t rows, groups, n, m;
};

/// The primitives every kernel in the layer is built from. One table per
/// tier; all function pointers are non-null.
struct Microkernels {
  /// y[0..n) += a * x[0..n).
  void (*axpy)(float a, const float* x, float* y, std::int64_t n);

  /// Multiplies one CRISP block into its block-row's output band:
  ///   y[r*p + j] += sum_{g,s} v(r,g,s) * x[(g*m + off(r,g,s)) * p + j]
  /// for every block row r and column j in [0, p). `x` points at the
  /// activation row of the block's first column, `y` at the block-row's
  /// first output row, both with row stride p. Each output element adds
  /// its slots in stored order (group, then slot), skips zero slots, and
  /// takes every step as one fused multiply-add (one multiply then one add
  /// in the scalar tier) — so the result is the per-slot axpy sequence's,
  /// bit for bit, whatever loop order the tier picks from p.
  void (*crisp_block)(const float* values, const CrispBlock& blk,
                      const float* x, float* y, std::int64_t p);

  /// The int8 payload's crisp_block: slot coefficient scale * float(q),
  /// a single IEEE multiply formed identically in every tier; q == 0 slots
  /// are skipped.
  void (*crisp_block_i8)(const std::int8_t* q, float scale,
                         const CrispBlock& blk, const float* x, float* y,
                         std::int64_t p);

  /// Returns sum_i a[i] * b[i] over [0..n).
  float (*dot)(const float* a, const float* b, std::int64_t n);

  /// Register-blocked GEMM inner kernel over one reduction panel:
  ///   c[r*ldc + j] += sum_p apack[p*mr + r] * b[p*ldb + j]
  /// for r in [0, mr), j in [0, n), p in [0, kc). `apack` is the packed A
  /// sliver in p-major order (mr in [1, kMr]); `b` points at the first row
  /// of the panel. Skips reduction steps where all mr A values are zero,
  /// so pruned weights keep their free win.
  void (*gemm_panel)(const float* apack, std::int64_t mr, std::int64_t kc,
                     const float* b, std::int64_t ldb, float* c,
                     std::int64_t ldc, std::int64_t n);

  Tier tier;
  const char* name;
};

/// Microkernel table for the active tier. Resolved once (thread-safe);
/// kernels fetch it before entering parallel_for so a concurrent set_tier
/// cannot split one operation across tiers.
const Microkernels& active();

/// The tier active() currently dispatches to.
Tier active_tier();

/// Best tier this build + this CPU can run, ignoring CRISP_DISABLE_SIMD.
Tier supported_tier();

/// "scalar", "avx2", or "neon".
const char* tier_name(Tier t);

/// Forces dispatch to `t` for the whole process (tests/benches). Throws if
/// the build or CPU cannot run it; Tier::kScalar always succeeds.
void set_tier(Tier t);

/// Restores the startup default (supported tier unless CRISP_DISABLE_SIMD).
void reset_tier();

/// RAII tier override for tests and benches: forces `t` on construction,
/// restores the startup default on destruction. Not meant to nest.
class TierScope {
 public:
  explicit TierScope(Tier t) { set_tier(t); }
  ~TierScope() { reset_tier(); }
  TierScope(const TierScope&) = delete;
  TierScope& operator=(const TierScope&) = delete;
};

}  // namespace crisp::kernels::simd
