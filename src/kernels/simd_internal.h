// Internal glue between simd_dispatch.cpp and the per-ISA translation
// units. Each microkernel_*.cpp defines its accessor only when the build
// enables that ISA (CRISP_HAVE_AVX2 / CRISP_HAVE_NEON), and the dispatcher
// only references it under the same guard, so disabled tiers never link.
#pragma once

#include <cmath>
#include <cstdint>

#include "kernels/simd_dispatch.h"

namespace crisp::kernels::simd {

const Microkernels& detail_avx2_kernels();
const Microkernels& detail_neon_kernels();

// The helpers below are compiled into every tier's translation unit, each
// with its own ISA flags. The unnamed namespace gives every TU a private
// copy: with external linkage the linker could keep the AVX2 TU's
// out-of-line copy (an -O0 build does not inline) for the scalar tier too.
namespace {

/// Slot coefficients of the fp32 payload: a zero slot is skipped.
struct Fp32Slots {
  const float* values;
  bool operator()(std::int64_t k, float& a) const {
    a = values[k];
    return a != 0.0f;
  }
};

/// Slot coefficients of the int8 payload: q == 0 is skipped, otherwise the
/// coefficient is the one IEEE multiply scale * float(q).
struct Int8Slots {
  const std::int8_t* q;
  float scale;
  bool operator()(std::int64_t k, float& a) const {
    if (q[k] == 0) return false;
    a = scale * static_cast<float>(q[k]);
    return true;
  }
};

/// CRISP gather-dot over W < 8 columns for the SIMD tiers: one accumulator
/// per output row and column, held across all of that row's slots (groups
/// ascending, then slot), one std::fma per step, then stored once. `x` and
/// `y` point at the first column of the range; p is both arrays' row
/// stride.
template <int W, class Slots>
inline void crisp_gather_cols(Slots slots, const CrispBlock& b, const float* x,
                              float* y, std::int64_t p) {
  const std::int64_t per_row = b.groups * b.n;
  for (std::int64_t r = 0; r < b.rows; ++r) {
    float* yr = y + r * p;
    float acc[W];
    for (int j = 0; j < W; ++j) acc[j] = yr[j];
    for (std::int64_t g = 0; g < b.groups; ++g) {
      const float* xg = x + g * b.m * p;
      for (std::int64_t s = 0; s < b.n; ++s) {
        const std::int64_t k = r * per_row + g * b.n + s;
        float a;
        if (!slots(k, a)) continue;
        const float* xr = xg + b.offsets[k] * p;
        for (int j = 0; j < W; ++j) acc[j] = std::fma(a, xr[j], acc[j]);
      }
    }
    for (int j = 0; j < W; ++j) yr[j] = acc[j];
  }
}

/// crisp_gather_cols for a run-time width w in [1, 8).
template <class Slots>
inline void crisp_gather(Slots slots, const CrispBlock& b, const float* x,
                         float* y, std::int64_t p, std::int64_t w) {
  switch (w) {
    case 1: return crisp_gather_cols<1>(slots, b, x, y, p);
    case 2: return crisp_gather_cols<2>(slots, b, x, y, p);
    case 3: return crisp_gather_cols<3>(slots, b, x, y, p);
    case 4: return crisp_gather_cols<4>(slots, b, x, y, p);
    case 5: return crisp_gather_cols<5>(slots, b, x, y, p);
    case 6: return crisp_gather_cols<6>(slots, b, x, y, p);
    default: return crisp_gather_cols<7>(slots, b, x, y, p);
  }
}

}  // namespace

}  // namespace crisp::kernels::simd
