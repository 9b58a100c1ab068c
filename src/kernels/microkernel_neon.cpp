// NEON microkernels (4-lane float) for aarch64, where Advanced SIMD is part
// of the baseline ISA — no special compile flags, only the CRISP_HAVE_NEON
// gate from CMakeLists.txt. Mirrors microkernel_avx2.cpp with half the lane
// width; see that file and simd_dispatch.h for the determinism contract.
#include "kernels/simd_internal.h"

#if CRISP_HAVE_NEON

#include <arm_neon.h>

#include <cmath>

namespace crisp::kernels::simd {

namespace {

void neon_axpy(float a, const float* x, float* y, std::int64_t n) {
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const float32x4_t y0 = vfmaq_n_f32(vld1q_f32(y + j), vld1q_f32(x + j), a);
    const float32x4_t y1 =
        vfmaq_n_f32(vld1q_f32(y + j + 4), vld1q_f32(x + j + 4), a);
    vst1q_f32(y + j, y0);
    vst1q_f32(y + j + 4, y1);
  }
  for (; j + 4 <= n; j += 4)
    vst1q_f32(y + j, vfmaq_n_f32(vld1q_f32(y + j), vld1q_f32(x + j), a));
  for (; j < n; ++j) y[j] = std::fma(a, x[j], y[j]);
}

/// T 4-lane column tiles of one block row: the row's y tile stays in
/// registers across all of its groups x n slots.
template <int T, class Slots>
inline void crisp_tile(Slots slots, const CrispBlock& b, std::int64_t r,
                       const float* x, float* yr, std::int64_t p) {
  float32x4_t acc[T];
  for (int t = 0; t < T; ++t) acc[t] = vld1q_f32(yr + 4 * t);
  const std::int64_t k0 = r * b.groups * b.n;
  for (std::int64_t g = 0; g < b.groups; ++g) {
    const float* xg = x + g * b.m * p;
    for (std::int64_t s = 0; s < b.n; ++s) {
      const std::int64_t k = k0 + g * b.n + s;
      float a;
      if (!slots(k, a)) continue;
      const float* xr = xg + b.offsets[k] * p;
      for (int t = 0; t < T; ++t)
        acc[t] = vfmaq_n_f32(acc[t], vld1q_f32(xr + 4 * t), a);
    }
  }
  for (int t = 0; t < T; ++t) vst1q_f32(yr + 4 * t, acc[t]);
}

/// p < 8: gather-dot. Otherwise 16/8/4-column register tiles per block
/// row, then the < 4-column tail as a fused gather-dot.
template <class Slots>
void neon_crisp_block_impl(Slots slots, const CrispBlock& b, const float* x,
                           float* y, std::int64_t p) {
  const std::int64_t vec = p < 8 ? 0 : p & ~std::int64_t{3};
  for (std::int64_t r = 0; vec > 0 && r < b.rows; ++r) {
    float* yr = y + r * p;
    std::int64_t j = 0;
    for (; j + 16 <= vec; j += 16) crisp_tile<4>(slots, b, r, x + j, yr + j, p);
    if (j + 8 <= vec) {
      crisp_tile<2>(slots, b, r, x + j, yr + j, p);
      j += 8;
    }
    if (j < vec) crisp_tile<1>(slots, b, r, x + j, yr + j, p);
  }
  if (vec < p) crisp_gather(slots, b, x + vec, y + vec, p, p - vec);
}

void neon_crisp_block(const float* values, const CrispBlock& b, const float* x,
                      float* y, std::int64_t p) {
  neon_crisp_block_impl(Fp32Slots{values}, b, x, y, p);
}

void neon_crisp_block_i8(const std::int8_t* q, float scale,
                         const CrispBlock& b, const float* x, float* y,
                         std::int64_t p) {
  neon_crisp_block_impl(Int8Slots{q, scale}, b, x, y, p);
}

float neon_dot(const float* a, const float* b, std::int64_t n) {
  float32x4_t acc0 = vdupq_n_f32(0.0f), acc1 = vdupq_n_f32(0.0f);
  float32x4_t acc2 = vdupq_n_f32(0.0f), acc3 = vdupq_n_f32(0.0f);
  std::int64_t p = 0;
  for (; p + 16 <= n; p += 16) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + p), vld1q_f32(b + p));
    acc1 = vfmaq_f32(acc1, vld1q_f32(a + p + 4), vld1q_f32(b + p + 4));
    acc2 = vfmaq_f32(acc2, vld1q_f32(a + p + 8), vld1q_f32(b + p + 8));
    acc3 = vfmaq_f32(acc3, vld1q_f32(a + p + 12), vld1q_f32(b + p + 12));
  }
  for (; p + 4 <= n; p += 4)
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + p), vld1q_f32(b + p));
  acc0 = vaddq_f32(vaddq_f32(acc0, acc1), vaddq_f32(acc2, acc3));
  float acc = vaddvq_f32(acc0);
  for (; p < n; ++p) acc += a[p] * b[p];
  return acc;
}

inline bool all_zero(const float* ap, std::int64_t mr) {
  switch (mr) {
    case 4: {
      const uint32x4_t nz =
          vceqq_f32(vld1q_f32(ap), vdupq_n_f32(0.0f));
      return vminvq_u32(nz) == 0xffffffffu;
    }
    case 3:
      return ap[0] == 0.0f && ap[1] == 0.0f && ap[2] == 0.0f;
    case 2:
      return ap[0] == 0.0f && ap[1] == 0.0f;
    default:
      return ap[0] == 0.0f;
  }
}

template <int MR>
inline void tile8(const float* apack, std::int64_t kc, const float* b,
                  std::int64_t ldb, float* c, std::int64_t ldc,
                  std::int64_t j) {
  float32x4_t acc0[MR], acc1[MR];
  for (int r = 0; r < MR; ++r) {
    acc0[r] = vld1q_f32(c + r * ldc + j);
    acc1[r] = vld1q_f32(c + r * ldc + j + 4);
  }
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* ap = apack + p * MR;
    if (all_zero(ap, MR)) continue;
    const float32x4_t b0 = vld1q_f32(b + p * ldb + j);
    const float32x4_t b1 = vld1q_f32(b + p * ldb + j + 4);
    for (int r = 0; r < MR; ++r) {
      acc0[r] = vfmaq_n_f32(acc0[r], b0, ap[r]);
      acc1[r] = vfmaq_n_f32(acc1[r], b1, ap[r]);
    }
  }
  for (int r = 0; r < MR; ++r) {
    vst1q_f32(c + r * ldc + j, acc0[r]);
    vst1q_f32(c + r * ldc + j + 4, acc1[r]);
  }
}

template <int MR>
inline void tile4(const float* apack, std::int64_t kc, const float* b,
                  std::int64_t ldb, float* c, std::int64_t ldc,
                  std::int64_t j) {
  float32x4_t acc[MR];
  for (int r = 0; r < MR; ++r) acc[r] = vld1q_f32(c + r * ldc + j);
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* ap = apack + p * MR;
    if (all_zero(ap, MR)) continue;
    const float32x4_t b0 = vld1q_f32(b + p * ldb + j);
    for (int r = 0; r < MR; ++r) acc[r] = vfmaq_n_f32(acc[r], b0, ap[r]);
  }
  for (int r = 0; r < MR; ++r) vst1q_f32(c + r * ldc + j, acc[r]);
}

template <int MR>
void panel_impl(const float* apack, std::int64_t kc, const float* b,
                std::int64_t ldb, float* c, std::int64_t ldc,
                std::int64_t n) {
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) tile8<MR>(apack, kc, b, ldb, c, ldc, j);
  if (j + 4 <= n) {
    tile4<MR>(apack, kc, b, ldb, c, ldc, j);
    j += 4;
  }
  if (j < n) {
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

void neon_gemm_panel(const float* apack, std::int64_t mr, std::int64_t kc,
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

constexpr Microkernels kNeonKernels{
    neon_axpy,       neon_crisp_block, neon_crisp_block_i8, neon_dot,
    neon_gemm_panel, Tier::kNeon,      "neon"};

}  // namespace

const Microkernels& detail_neon_kernels() { return kNeonKernels; }

}  // namespace crisp::kernels::simd

#endif  // CRISP_HAVE_NEON
