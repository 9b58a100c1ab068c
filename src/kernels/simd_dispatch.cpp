#include "kernels/simd_dispatch.h"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <string>

#include "kernels/simd_internal.h"
#include "tensor/check.h"

namespace crisp::kernels::simd {

namespace {

// ---- scalar tier ------------------------------------------------------------
// Loop structure deliberately mirrors the pre-SIMD kernels (r outer, p inner,
// per-element zero-skip) so the scalar tier stays bit-identical to them.

void scalar_axpy(float a, const float* x, float* y, std::int64_t n) {
  for (std::int64_t j = 0; j < n; ++j) y[j] += a * x[j];
}

// Every slot an inline axpy over its row's p columns: the reference order
// the SIMD tiers' loop orders must reproduce per output element.
template <class Slots>
void scalar_crisp_block_impl(Slots slots, const CrispBlock& b, const float* x,
                             float* y, std::int64_t p) {
  const std::int64_t per_row = b.groups * b.n;
  for (std::int64_t r = 0; r < b.rows; ++r) {
    float* yr = y + r * p;
    for (std::int64_t g = 0; g < b.groups; ++g)
      for (std::int64_t s = 0; s < b.n; ++s) {
        const std::int64_t k = r * per_row + g * b.n + s;
        float a;
        if (!slots(k, a)) continue;
        const float* xr = x + (g * b.m + b.offsets[k]) * p;
        for (std::int64_t j = 0; j < p; ++j) yr[j] += a * xr[j];
      }
  }
}

void scalar_crisp_block(const float* values, const CrispBlock& b,
                        const float* x, float* y, std::int64_t p) {
  scalar_crisp_block_impl(Fp32Slots{values}, b, x, y, p);
}

void scalar_crisp_block_i8(const std::int8_t* q, float scale,
                           const CrispBlock& b, const float* x, float* y,
                           std::int64_t p) {
  scalar_crisp_block_impl(Int8Slots{q, scale}, b, x, y, p);
}

float scalar_dot(const float* a, const float* b, std::int64_t n) {
  float acc = 0.0f;
  for (std::int64_t p = 0; p < n; ++p) acc += a[p] * b[p];
  return acc;
}

void scalar_gemm_panel(const float* apack, std::int64_t mr, std::int64_t kc,
                       const float* b, std::int64_t ldb, float* c,
                       std::int64_t ldc, std::int64_t n) {
  for (std::int64_t r = 0; r < mr; ++r) {
    float* crow = c + r * ldc;
    for (std::int64_t p = 0; p < kc; ++p) {
      const float av = apack[p * mr + r];
      if (av == 0.0f) continue;  // free win on masked weights
      const float* brow = b + p * ldb;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

constexpr Microkernels kScalarKernels{
    scalar_axpy,       scalar_crisp_block, scalar_crisp_block_i8, scalar_dot,
    scalar_gemm_panel, Tier::kScalar,      "scalar"};

// ---- tier resolution --------------------------------------------------------

bool env_disables_simd() {
  const char* e = std::getenv("CRISP_DISABLE_SIMD");
  if (e == nullptr) return false;
  // Any value other than an explicit case-insensitive "off" disables;
  // CRISP_DISABLE_SIMD=1 and CRISP_DISABLE_SIMD=on both read naturally.
  std::string v(e);
  for (char& c : v) c = static_cast<char>(std::tolower(c));
  return !(v.empty() || v == "0" || v == "off" || v == "false" || v == "no");
}

const Microkernels* table_for(Tier t) {
  switch (t) {
#if CRISP_HAVE_AVX2
    case Tier::kAvx2:
      return &detail_avx2_kernels();
#endif
#if CRISP_HAVE_NEON
    case Tier::kNeon:
      return &detail_neon_kernels();
#endif
    default:
      return &kScalarKernels;
  }
}

std::atomic<const Microkernels*> g_active{nullptr};

const Microkernels* resolve_default() {
  if (env_disables_simd()) return &kScalarKernels;
  return table_for(supported_tier());
}

}  // namespace

Tier supported_tier() {
#if CRISP_HAVE_AVX2
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    return Tier::kAvx2;
#endif
#if CRISP_HAVE_NEON
  return Tier::kNeon;
#endif
  return Tier::kScalar;
}

const Microkernels& active() {
  const Microkernels* mk = g_active.load(std::memory_order_acquire);
  if (mk == nullptr) {
    mk = resolve_default();
    g_active.store(mk, std::memory_order_release);
  }
  return *mk;
}

Tier active_tier() { return active().tier; }

const char* tier_name(Tier t) {
  switch (t) {
    case Tier::kAvx2:
      return "avx2";
    case Tier::kNeon:
      return "neon";
    default:
      return "scalar";
  }
}

void set_tier(Tier t) {
  CRISP_CHECK(t == Tier::kScalar || t == supported_tier(),
              "SIMD tier '" << tier_name(t)
                            << "' is not available in this build/CPU"
                               " (supported: "
                            << tier_name(supported_tier()) << ")");
  g_active.store(table_for(t), std::memory_order_release);
}

void reset_tier() {
  g_active.store(resolve_default(), std::memory_order_release);
}

}  // namespace crisp::kernels::simd
