// AVX2+FMA microkernels (8-lane float). This translation unit is the only
// one compiled with -mavx2 -mfma (see CMakeLists.txt), so every intrinsic
// stays behind the runtime dispatch in simd_dispatch.cpp — the rest of the
// library keeps the portable baseline ISA and a pre-AVX2 CPU never executes
// a byte of this file.
//
// Accumulation orders are fixed (j-tiles left to right, p ascending inside
// a tile, reduction lanes combined the same way every call), so results are
// deterministic and thread-count independent within this tier.
//
// The TU is built with -ffp-contract=off, so the compiler never fuses a
// multiply and an add on its own: every FMA below is written out
// (_mm256_fmadd_ps or std::fma), and every other a * b + c rounds twice.
// Debug and Release builds therefore compute the same bits.
#include "kernels/simd_internal.h"

#if CRISP_HAVE_AVX2

#include <immintrin.h>

#include <cmath>

namespace crisp::kernels::simd {

namespace {

void avx2_axpy(float a, const float* x, float* y, std::int64_t n) {
  const __m256 av = _mm256_set1_ps(a);
  std::int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    const __m256 y0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(x + j),
                                      _mm256_loadu_ps(y + j));
    const __m256 y1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(x + j + 8),
                                      _mm256_loadu_ps(y + j + 8));
    _mm256_storeu_ps(y + j, y0);
    _mm256_storeu_ps(y + j + 8, y1);
  }
  for (; j + 8 <= n; j += 8)
    _mm256_storeu_ps(y + j, _mm256_fmadd_ps(av, _mm256_loadu_ps(x + j),
                                            _mm256_loadu_ps(y + j)));
  for (; j < n; ++j) y[j] = std::fma(a, x[j], y[j]);
}

/// T 8-lane column tiles of one block row: the row's y tile stays in
/// registers across all of its groups x n slots.
template <int T, class Slots>
inline void crisp_tile(Slots slots, const CrispBlock& b, std::int64_t r,
                       const float* x, float* yr, std::int64_t p) {
  __m256 acc[T];
  for (int t = 0; t < T; ++t) acc[t] = _mm256_loadu_ps(yr + 8 * t);
  const std::int64_t k0 = r * b.groups * b.n;
  for (std::int64_t g = 0; g < b.groups; ++g) {
    const float* xg = x + g * b.m * p;
    for (std::int64_t s = 0; s < b.n; ++s) {
      const std::int64_t k = k0 + g * b.n + s;
      float a;
      if (!slots(k, a)) continue;
      const float* xr = xg + b.offsets[k] * p;
      const __m256 av = _mm256_set1_ps(a);
      for (int t = 0; t < T; ++t)
        acc[t] = _mm256_fmadd_ps(av, _mm256_loadu_ps(xr + 8 * t), acc[t]);
    }
  }
  for (int t = 0; t < T; ++t) _mm256_storeu_ps(yr + 8 * t, acc[t]);
}

/// p < 8: gather-dot. Otherwise 32/16/8-column register tiles per block
/// row, then the < 8-column tail as a fused gather-dot.
template <class Slots>
void avx2_crisp_block_impl(Slots slots, const CrispBlock& b, const float* x,
                           float* y, std::int64_t p) {
  const std::int64_t vec = p & ~std::int64_t{7};
  for (std::int64_t r = 0; vec > 0 && r < b.rows; ++r) {
    float* yr = y + r * p;
    std::int64_t j = 0;
    for (; j + 32 <= vec; j += 32) crisp_tile<4>(slots, b, r, x + j, yr + j, p);
    if (j + 16 <= vec) {
      crisp_tile<2>(slots, b, r, x + j, yr + j, p);
      j += 16;
    }
    if (j < vec) crisp_tile<1>(slots, b, r, x + j, yr + j, p);
  }
  if (vec < p) crisp_gather(slots, b, x + vec, y + vec, p, p - vec);
}

void avx2_crisp_block(const float* values, const CrispBlock& b, const float* x,
                      float* y, std::int64_t p) {
  avx2_crisp_block_impl(Fp32Slots{values}, b, x, y, p);
}

void avx2_crisp_block_i8(const std::int8_t* q, float scale,
                         const CrispBlock& b, const float* x, float* y,
                         std::int64_t p) {
  avx2_crisp_block_impl(Int8Slots{q, scale}, b, x, y, p);
}

float avx2_dot(const float* a, const float* b, std::int64_t n) {
  // Four independent 8-lane chains for ILP; combined pairwise at the end so
  // the reduction tree is the same for every call with the same n.
  __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps(), acc3 = _mm256_setzero_ps();
  std::int64_t p = 0;
  for (; p + 32 <= n; p += 32) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + p), _mm256_loadu_ps(b + p), acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + p + 8),
                           _mm256_loadu_ps(b + p + 8), acc1);
    acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(a + p + 16),
                           _mm256_loadu_ps(b + p + 16), acc2);
    acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(a + p + 24),
                           _mm256_loadu_ps(b + p + 24), acc3);
  }
  for (; p + 8 <= n; p += 8)
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + p), _mm256_loadu_ps(b + p), acc0);
  acc0 = _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3));
  const __m128 lo = _mm256_castps256_ps128(acc0);
  const __m128 hi = _mm256_extractf128_ps(acc0, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  float acc = _mm_cvtss_f32(s);
  for (; p < n; ++p) acc += a[p] * b[p];
  return acc;
}

/// True when all mr packed A values at reduction step p are zero — the
/// vector version of the scalar kernels' per-element zero-skip. Hybrid
/// pruning zeroes whole column blocks across neighbouring rows, so this
/// fires often on CRISP-masked weights and never hurts dense ones much.
inline bool all_zero(const float* ap, std::int64_t mr) {
  switch (mr) {
    case 4: {
      const __m128 v = _mm_loadu_ps(ap);
      return _mm_movemask_ps(_mm_cmpneq_ps(v, _mm_setzero_ps())) == 0;
    }
    case 3:
      return ap[0] == 0.0f && ap[1] == 0.0f && ap[2] == 0.0f;
    case 2:
      return ap[0] == 0.0f && ap[1] == 0.0f;
    default:
      return ap[0] == 0.0f;
  }
}

/// One mr x 16 C tile: accumulators live in registers across the whole
/// reduction panel, then merge into memory once.
template <int MR>
inline void tile16(const float* apack, std::int64_t kc, const float* b,
                   std::int64_t ldb, float* c, std::int64_t ldc,
                   std::int64_t j) {
  __m256 acc0[MR], acc1[MR];
  for (int r = 0; r < MR; ++r) {
    acc0[r] = _mm256_loadu_ps(c + r * ldc + j);
    acc1[r] = _mm256_loadu_ps(c + r * ldc + j + 8);
  }
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* ap = apack + p * MR;
    if (all_zero(ap, MR)) continue;
    const __m256 b0 = _mm256_loadu_ps(b + p * ldb + j);
    const __m256 b1 = _mm256_loadu_ps(b + p * ldb + j + 8);
    for (int r = 0; r < MR; ++r) {
      const __m256 av = _mm256_set1_ps(ap[r]);
      acc0[r] = _mm256_fmadd_ps(av, b0, acc0[r]);
      acc1[r] = _mm256_fmadd_ps(av, b1, acc1[r]);
    }
  }
  for (int r = 0; r < MR; ++r) {
    _mm256_storeu_ps(c + r * ldc + j, acc0[r]);
    _mm256_storeu_ps(c + r * ldc + j + 8, acc1[r]);
  }
}

template <int MR>
inline void tile8(const float* apack, std::int64_t kc, const float* b,
                  std::int64_t ldb, float* c, std::int64_t ldc,
                  std::int64_t j) {
  __m256 acc[MR];
  for (int r = 0; r < MR; ++r) acc[r] = _mm256_loadu_ps(c + r * ldc + j);
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* ap = apack + p * MR;
    if (all_zero(ap, MR)) continue;
    const __m256 b0 = _mm256_loadu_ps(b + p * ldb + j);
    for (int r = 0; r < MR; ++r)
      acc[r] = _mm256_fmadd_ps(_mm256_set1_ps(ap[r]), b0, acc[r]);
  }
  for (int r = 0; r < MR; ++r) _mm256_storeu_ps(c + r * ldc + j, acc[r]);
}

template <int MR>
void panel_impl(const float* apack, std::int64_t kc, const float* b,
                std::int64_t ldb, float* c, std::int64_t ldc,
                std::int64_t n) {
  std::int64_t j = 0;
  for (; j + 16 <= n; j += 16) tile16<MR>(apack, kc, b, ldb, c, ldc, j);
  if (j + 8 <= n) {
    tile8<MR>(apack, kc, b, ldb, c, ldc, j);
    j += 8;
  }
  if (j < n) {
    // Scalar column tail (< 8 lanes), same p-ascending order.
    for (std::int64_t p = 0; p < kc; ++p) {
      const float* ap = apack + p * MR;
      const float* brow = b + p * ldb;
      for (int r = 0; r < MR; ++r) {
        const float av = ap[r];
        if (av == 0.0f) continue;
        float* crow = c + r * ldc;
        for (std::int64_t jj = j; jj < n; ++jj)
          crow[jj] = std::fma(av, brow[jj], crow[jj]);
      }
    }
  }
}

void avx2_gemm_panel(const float* apack, std::int64_t mr, std::int64_t kc,
                     const float* b, std::int64_t ldb, float* c,
                     std::int64_t ldc, std::int64_t n) {
  switch (mr) {
    case 4:
      panel_impl<4>(apack, kc, b, ldb, c, ldc, n);
      break;
    case 3:
      panel_impl<3>(apack, kc, b, ldb, c, ldc, n);
      break;
    case 2:
      panel_impl<2>(apack, kc, b, ldb, c, ldc, n);
      break;
    default:
      panel_impl<1>(apack, kc, b, ldb, c, ldc, n);
      break;
  }
}

constexpr Microkernels kAvx2Kernels{
    avx2_axpy,       avx2_crisp_block, avx2_crisp_block_i8, avx2_dot,
    avx2_gemm_panel, Tier::kAvx2,      "avx2"};

}  // namespace

const Microkernels& detail_avx2_kernels() { return kAvx2Kernels; }

}  // namespace crisp::kernels::simd

#endif  // CRISP_HAVE_AVX2
