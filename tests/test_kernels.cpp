// Kernel-layer tests: parallel_for partitioning/exceptions/nesting, the
// thread-count invariance contract — bit-identical results at 1/2/8 threads
// for every dense GEMM variant and every SpmmKernel implementation — the
// strengthened GEMM operand checking, CRISP_NUM_THREADS validation,
// SIMD/scalar dispatch parity on tail-heavy shapes, and the column
// independence of every spmm (a column's bits never depend on the batch).
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "kernels/gemm.h"
#include "kernels/parallel_for.h"
#include "kernels/reduce.h"
#include "kernels/simd_dispatch.h"
#include "nn/batchnorm.h"
#include "nn/pooling.h"
#include "sparse/block.h"
#include "sparse/nm.h"
#include "sparse/spmm.h"
#include "tensor/matmul.h"
#include "thread_guard.h"

namespace crisp {
namespace {

using crisp::testing::ThreadGuard;

/// Tolerance for cross-tier comparisons: tiers differ only by FMA
/// contraction and vectorized reduction trees, so a few ULPs of the
/// accumulated magnitude — far below any real kernel bug.
constexpr float kTierRtol = 1e-4f;
constexpr float kTierAtol = 1e-4f;

/// Asserts fn() computed under the active (possibly SIMD) tier matches the
/// forced-scalar fallback within rounding. In a CRISP_DISABLE_SIMD build
/// the active tier *is* scalar and the check degenerates to bitwise.
template <typename Fn>
void expect_tier_parity(Fn&& fn) {
  const Tensor active = fn();
  Tensor scalar;
  {
    kernels::simd::TierScope tier(kernels::simd::Tier::kScalar);
    scalar = fn();
  }
  ASSERT_TRUE(active.same_shape(scalar));
  EXPECT_TRUE(allclose(active, scalar, kTierRtol, kTierAtol))
      << "tier '" << kernels::simd::tier_name(kernels::simd::active_tier())
      << "' diverged from scalar by " << max_abs_diff(active, scalar);
}

/// Runs `fn` producing a Tensor at the given thread count.
template <typename Fn>
Tensor at_threads(int threads, Fn&& fn) {
  kernels::set_num_threads(threads);
  return fn();
}

/// Asserts fn() is bit-identical at 1, 2, and 8 threads.
template <typename Fn>
void expect_thread_invariant(Fn&& fn) {
  const Tensor serial = at_threads(1, fn);
  for (const int t : {2, 8}) {
    const Tensor parallel = at_threads(t, fn);
    ASSERT_TRUE(serial.same_shape(parallel));
    EXPECT_EQ(max_abs_diff(serial, parallel), 0.0f)
        << "kernel result changed at " << t << " threads";
  }
}

/// CRISP hybrid pattern: uniform per-row block pruning composed with N:M.
Tensor hybrid_matrix(std::int64_t rows, std::int64_t cols, std::int64_t block,
                     std::int64_t n, std::int64_t m,
                     std::int64_t pruned_per_row, Rng& rng) {
  Tensor w = Tensor::randn({rows, cols}, rng);
  Tensor scores = Tensor::rand({rows, cols}, rng, 0.01f, 1.0f);
  Tensor nm = sparse::nm_mask(as_matrix(scores, rows, cols), n, m);
  sparse::BlockGrid grid{rows, cols, block};
  Tensor bscores = sparse::block_scores(as_matrix(scores, rows, cols), grid);
  std::vector<std::int64_t> prune(
      static_cast<std::size_t>(grid.grid_rows()), pruned_per_row);
  Tensor bmask = sparse::expand_block_mask(
      sparse::uniform_row_block_mask(bscores, grid, prune), grid);
  w.mul_(nm);
  w.mul_(bmask);
  return w;
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadGuard guard;
  kernels::set_num_threads(4);
  const std::int64_t total = 1037;  // not a multiple of any chunk size
  std::vector<int> hits(static_cast<std::size_t>(total), 0);
  kernels::parallel_for(total, [&](std::int64_t b, std::int64_t e) {
    ASSERT_LE(0, b);
    ASSERT_LE(b, e);
    ASSERT_LE(e, total);
    for (std::int64_t i = b; i < e; ++i) ++hits[static_cast<std::size_t>(i)];
  });
  for (std::int64_t i = 0; i < total; ++i) EXPECT_EQ(hits[i], 1) << "i=" << i;
}

TEST(ParallelFor, EmptyAndTinyRanges) {
  ThreadGuard guard;
  kernels::set_num_threads(8);
  int calls = 0;
  kernels::parallel_for(0, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  kernels::parallel_for(1, [&](std::int64_t b, std::int64_t e) {
    ++calls;
    EXPECT_EQ(b, 0);
    EXPECT_EQ(e, 1);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, GrainCoarsensChunks) {
  ThreadGuard guard;
  kernels::set_num_threads(4);
  std::mutex m;
  std::vector<std::int64_t> widths;
  kernels::parallel_for(
      100,
      [&](std::int64_t b, std::int64_t e) {
        std::lock_guard<std::mutex> lk(m);
        widths.push_back(e - b);
      },
      /*grain=*/64);
  // 100 indices at grain 64 -> chunks of 64 and 36.
  ASSERT_EQ(widths.size(), 2u);
  EXPECT_EQ(widths[0] + widths[1], 100);
  for (const std::int64_t w : widths) EXPECT_GE(w, 36);
}

TEST(ParallelFor, PropagatesExceptions) {
  ThreadGuard guard;
  kernels::set_num_threads(4);
  EXPECT_THROW(
      kernels::parallel_for(64,
                            [&](std::int64_t b, std::int64_t) {
                              if (b == 0) throw std::runtime_error("boom");
                            }),
      std::runtime_error);
  // Pool must stay usable after an exception.
  std::atomic<std::int64_t> sum{0};
  kernels::parallel_for(64, [&](std::int64_t b, std::int64_t e) {
    sum.fetch_add(e - b);
  });
  EXPECT_EQ(sum.load(), 64);
}

TEST(ParallelFor, NestedCallsRunSerially) {
  ThreadGuard guard;
  kernels::set_num_threads(4);
  std::atomic<bool> saw_nested_parallel{false};
  std::atomic<std::int64_t> inner_total{0};
  kernels::parallel_for(8, [&](std::int64_t, std::int64_t e_outer) {
    (void)e_outer;
    if (kernels::in_parallel_region()) {
      kernels::parallel_for(16, [&](std::int64_t b, std::int64_t e) {
        if (kernels::in_parallel_region()) {
          // still flagged: the nested loop must not resubmit to the pool
        } else {
          saw_nested_parallel = true;
        }
        inner_total.fetch_add(e - b);
      });
    }
  });
  EXPECT_FALSE(saw_nested_parallel.load());
  EXPECT_GT(inner_total.load(), 0);
}

TEST(ParallelFor, SetNumThreads) {
  ThreadGuard guard;
  kernels::set_num_threads(3);
  EXPECT_EQ(kernels::num_threads(), 3);
  kernels::set_num_threads(0);  // reset to environment/hardware default
  EXPECT_GE(kernels::num_threads(), 1);
}

TEST(DenseGemm, ThreadCountInvariantAndMatchesNaive) {
  ThreadGuard guard;
  Rng rng(11);
  // Odd sizes that straddle chunk boundaries; k > kKc exercises the k-panel.
  const std::int64_t m = 37, k = kernels::kKc + 29, n = 23;
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);

  expect_thread_invariant([&] { return matmul(a, b); });

  // ikj naive reference — the scalar tier keeps this exact accumulation
  // order, so under forced-scalar dispatch equality is bitwise.
  Tensor want({m, n});
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t p = 0; p < k; ++p)
      for (std::int64_t j = 0; j < n; ++j)
        want[i * n + j] += a[i * k + p] * b[p * n + j];
  {
    kernels::simd::TierScope tier(kernels::simd::Tier::kScalar);
    EXPECT_EQ(max_abs_diff(at_threads(8, [&] { return matmul(a, b); }), want),
              0.0f);
  }
  // SIMD tiers contract to FMA, so they match to rounding, not bitwise.
  EXPECT_TRUE(allclose(at_threads(8, [&] { return matmul(a, b); }), want,
                       kTierRtol, kTierAtol));
}

TEST(DenseGemm, AccumulateVariantThreadCountInvariant) {
  ThreadGuard guard;
  Rng rng(12);
  const std::int64_t m = 19, k = 301, n = 31;
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);
  const Tensor seed = Tensor::randn({m, n}, rng);
  expect_thread_invariant([&] {
    Tensor c = seed;
    matmul_accumulate(as_matrix(a, m, k), as_matrix(b, k, n),
                      as_matrix(c, m, n));
    return c;
  });
}

TEST(DenseGemm, TnVariantThreadCountInvariant) {
  ThreadGuard guard;
  Rng rng(13);
  const std::int64_t k = 300, m = 41, n = 17;  // A stored K x M
  const Tensor a = Tensor::randn({k, m}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);
  expect_thread_invariant([&] {
    Tensor c({m, n});
    matmul_tn(as_matrix(a, k, m), as_matrix(b, k, n), as_matrix(c, m, n));
    return c;
  });
}

TEST(DenseGemm, NtVariantThreadCountInvariant) {
  ThreadGuard guard;
  Rng rng(14);
  const std::int64_t m = 43, k = 270, n = 19;  // B stored N x K
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({n, k}, rng);
  expect_thread_invariant([&] {
    Tensor c({m, n});
    matmul_nt(as_matrix(a, m, k), as_matrix(b, n, k), as_matrix(c, m, n));
    return c;
  });
}

TEST(DenseGemm, MalformedOperandsThrow) {
  Rng rng(15);
  Tensor a = Tensor::randn({4, 6}, rng);
  Tensor b = Tensor::randn({6, 5}, rng);
  Tensor c({4, 5});

  // Inner-dimension mismatch: B claims the wrong row count.
  EXPECT_THROW(matmul(as_matrix(a, 4, 6), as_matrix(b, 5, 6),
                      as_matrix(c, 4, 5)),
               std::runtime_error);
  // B's column count disagrees with the k x n contract — the seed silently
  // read out of bounds here.
  EXPECT_THROW(matmul(as_matrix(a, 4, 6), as_matrix(b, 6, 4),
                      as_matrix(c, 4, 5)),
               std::runtime_error);
  // Output shape mismatch.
  EXPECT_THROW(matmul(as_matrix(a, 4, 6), as_matrix(b, 6, 5),
                      as_matrix(c, 5, 4)),
               std::runtime_error);
  // NT variant: B stored N x K, so a K x N view must be rejected.
  Tensor bt = Tensor::randn({5, 6}, rng);
  EXPECT_THROW(matmul_nt(as_matrix(a, 4, 6), as_matrix(bt, 6, 5),
                         as_matrix(c, 4, 5)),
               std::runtime_error);
}

class SpmmKernelSuite : public ::testing::Test {
 protected:
  static constexpr std::int64_t kRows = 64, kCols = 96, kBlock = 16;
  static constexpr std::int64_t kN = 2, kM = 4, kBatch = 33;

  void SetUp() override {
    Rng rng(21);
    weights_ = hybrid_matrix(kRows, kCols, kBlock, kN, kM,
                             /*pruned_per_row=*/2, rng);
    x_ = Tensor::randn({kCols, kBatch}, rng);
  }

  /// Checks the SpmmKernel contract for one implementation: correct result
  /// vs the dense reference, bit-identical across 1/2/8 threads, and
  /// sensible interface metadata.
  void check(const kernels::SpmmKernel& kernel, const char* want_name) {
    ThreadGuard guard;
    EXPECT_STREQ(kernel.format_name(), want_name);
    EXPECT_EQ(kernel.rows(), kRows);
    EXPECT_EQ(kernel.cols(), kCols);

    const Tensor ref = sparse::dense_matmul(weights_, x_);
    const Tensor got = at_threads(4, [&] { return sparse::spmm(kernel, x_); });
    EXPECT_TRUE(allclose(got, ref, 1e-4f, 1e-4f)) << want_name;

    expect_thread_invariant([&] { return sparse::spmm(kernel, x_); });
  }

  Tensor weights_;
  Tensor x_;
};

TEST_F(SpmmKernelSuite, Csr) {
  check(sparse::CsrMatrix::encode(as_matrix(weights_, kRows, kCols)), "csr");
}

TEST_F(SpmmKernelSuite, Ellpack) {
  check(sparse::EllpackMatrix::encode(as_matrix(weights_, kRows, kCols)),
        "ellpack");
}

TEST_F(SpmmKernelSuite, BlockedEll) {
  check(sparse::BlockedEllMatrix::encode(as_matrix(weights_, kRows, kCols),
                                         kBlock),
        "blocked-ell");
}

TEST_F(SpmmKernelSuite, Crisp) {
  check(sparse::CrispMatrix::encode(as_matrix(weights_, kRows, kCols), kBlock,
                                    kN, kM),
        "crisp");
}

TEST_F(SpmmKernelSuite, CrispQuantized) {
  // The int8 payload path (values released, spmm serves from quantized
  // slots): exact against the dequantized weights, bit-identical across
  // thread counts, and tier-parity like every other kernel.
  auto cm = sparse::CrispMatrix::encode(as_matrix(weights_, kRows, kCols),
                                        kBlock, kN, kM);
  cm.quantize_payload();
  cm.release_fp32_payload();
  ASSERT_TRUE(cm.has_quantized());
  ASSERT_FALSE(cm.has_fp32());

  ThreadGuard guard;
  const Tensor qref = sparse::dense_matmul(cm.decode(), x_);
  const Tensor got = at_threads(4, [&] { return sparse::spmm(cm, x_); });
  EXPECT_TRUE(allclose(got, qref, 1e-4f, 1e-4f));

  expect_thread_invariant([&] { return sparse::spmm(cm, x_); });
  expect_tier_parity([&] { return sparse::spmm(cm, x_); });
}

TEST_F(SpmmKernelSuite, DispatchRejectsBadShapes) {
  const auto csr = sparse::CsrMatrix::encode(as_matrix(weights_, kRows, kCols));
  Rng rng(5);
  const Tensor bad = Tensor::randn({kCols + 1, kBatch}, rng);
  EXPECT_THROW(sparse::spmm(csr, bad), std::runtime_error);
}

TEST(ParallelFor, ParseThreadCountValidation) {
  EXPECT_EQ(kernels::parse_thread_count(nullptr), 0);
  EXPECT_EQ(kernels::parse_thread_count(""), 0);
  EXPECT_EQ(kernels::parse_thread_count("abc"), 0);
  EXPECT_EQ(kernels::parse_thread_count("0"), 0);
  EXPECT_EQ(kernels::parse_thread_count("-3"), 0);
  EXPECT_EQ(kernels::parse_thread_count("4x"), 0);
  EXPECT_EQ(kernels::parse_thread_count("2.5"), 0);
  EXPECT_EQ(kernels::parse_thread_count("99999999999999999999"), 0);
  EXPECT_EQ(kernels::parse_thread_count("4"), 4);
  EXPECT_EQ(kernels::parse_thread_count("  8 "), 8);
  EXPECT_EQ(kernels::parse_thread_count("+2"), 2);
  EXPECT_EQ(kernels::parse_thread_count("100000"), kernels::kMaxThreads);
}

TEST(ParallelFor, EnvThreadCountValidation) {
  ThreadGuard guard;
  // A valid CRISP_NUM_THREADS value is honoured on reset...
  ASSERT_EQ(setenv("CRISP_NUM_THREADS", "3", 1), 0);
  kernels::set_num_threads(0);
  EXPECT_EQ(kernels::num_threads(), 3);
  // ...an invalid one is rejected (with a stderr warning) and resolution
  // falls back to the hardware default instead of silently misbehaving.
  ASSERT_EQ(setenv("CRISP_NUM_THREADS", "not-a-number", 1), 0);
  kernels::set_num_threads(0);
  const int fallback = kernels::num_threads();
  EXPECT_GE(fallback, 1);
  ASSERT_EQ(unsetenv("CRISP_NUM_THREADS"), 0);
  kernels::set_num_threads(0);
  EXPECT_EQ(kernels::num_threads(), fallback);
}

TEST(SimdDispatch, TierNamesAndOverride) {
  using kernels::simd::Tier;
  EXPECT_STREQ(kernels::simd::tier_name(Tier::kScalar), "scalar");
  EXPECT_STREQ(kernels::simd::tier_name(Tier::kAvx2), "avx2");
  EXPECT_STREQ(kernels::simd::tier_name(Tier::kNeon), "neon");

  const Tier def = kernels::simd::active_tier();
  kernels::simd::set_tier(Tier::kScalar);
  EXPECT_EQ(kernels::simd::active_tier(), Tier::kScalar);
  kernels::simd::set_tier(kernels::simd::supported_tier());
  EXPECT_EQ(kernels::simd::active_tier(), kernels::simd::supported_tier());
  kernels::simd::reset_tier();
  EXPECT_EQ(kernels::simd::active_tier(), def);
}

TEST(SimdDispatch, RejectsUnavailableTier) {
  using kernels::simd::Tier;
  // At most one SIMD tier exists per architecture/build, so anything other
  // than scalar and the supported tier must be rejected.
  const Tier sup = kernels::simd::supported_tier();
  if (sup != Tier::kAvx2) {
    EXPECT_THROW(kernels::simd::set_tier(Tier::kAvx2), std::runtime_error);
  }
  if (sup != Tier::kNeon) {
    EXPECT_THROW(kernels::simd::set_tier(Tier::kNeon), std::runtime_error);
  }
  EXPECT_EQ(kernels::simd::active_tier(), kernels::simd::active().tier);
}

// Shapes chosen so m straddles the simd::kMr row block, n straddles the
// 16/8-lane column tiles (forcing the vector tails), and k straddles the
// kKc reduction panel — the corners where a SIMD kernel would break first.
TEST(SimdParity, DenseGemmTailHeavyShapes) {
  Rng rng(31);
  const struct {
    std::int64_t m, k, n;
  } shapes[] = {
      {13, kernels::kKc + 29, 37},
      {4, 64, 41},
      {1, 31, 7},
      {30, 2 * kernels::kKc + 5, 64},
  };
  for (const auto& s : shapes) {
    const Tensor a = Tensor::randn({s.m, s.k}, rng);
    const Tensor b = Tensor::randn({s.k, s.n}, rng);
    expect_tier_parity([&] { return matmul(a, b); });

    const Tensor seed = Tensor::randn({s.m, s.n}, rng);
    expect_tier_parity([&] {
      Tensor c = seed;
      matmul_accumulate(as_matrix(a, s.m, s.k), as_matrix(b, s.k, s.n),
                        as_matrix(c, s.m, s.n));
      return c;
    });
  }
}

TEST(SimdParity, GemmTnTailHeavyShapes) {
  Rng rng(32);
  const struct {
    std::int64_t k, m, n;
  } shapes[] = {{kernels::kKc + 17, 13, 37}, {65, 3, 21}, {33, 1, 9}};
  for (const auto& s : shapes) {
    const Tensor a = Tensor::randn({s.k, s.m}, rng);  // stored K x M
    const Tensor b = Tensor::randn({s.k, s.n}, rng);
    expect_tier_parity([&] {
      Tensor c({s.m, s.n});
      matmul_tn(as_matrix(a, s.k, s.m), as_matrix(b, s.k, s.n),
                as_matrix(c, s.m, s.n));
      return c;
    });
  }
}

TEST(SimdParity, GemmNtTailHeavyShapes) {
  Rng rng(33);
  const struct {
    std::int64_t m, k, n;
  } shapes[] = {{13, 271, 37}, {5, 33, 11}, {1, 7, 3}};
  for (const auto& s : shapes) {
    const Tensor a = Tensor::randn({s.m, s.k}, rng);
    const Tensor b = Tensor::randn({s.n, s.k}, rng);  // stored N x K
    expect_tier_parity([&] {
      Tensor c({s.m, s.n});
      matmul_nt(as_matrix(a, s.m, s.k), as_matrix(b, s.n, s.k),
                as_matrix(c, s.m, s.n));
      return c;
    });
  }
}

/// One matrix in every SpmmKernel format, CRISP twice: fp32 and int8 (the
/// int8 payload served after the fp32 one is released).
struct AllFormats {
  static constexpr std::int64_t kRows = 64, kCols = 96, kBlock = 16;

  explicit AllFormats(Rng& rng)
      : w(hybrid_matrix(kRows, kCols, kBlock, 2, 4, /*pruned_per_row=*/2,
                        rng)),
        csr(sparse::CsrMatrix::encode(as_matrix(w, kRows, kCols))),
        ell(sparse::EllpackMatrix::encode(as_matrix(w, kRows, kCols))),
        bell(sparse::BlockedEllMatrix::encode(as_matrix(w, kRows, kCols),
                                              kBlock)),
        cm(sparse::CrispMatrix::encode(as_matrix(w, kRows, kCols), kBlock, 2,
                                       4)),
        cq(cm) {
    cq.quantize_payload();
    cq.release_fp32_payload();
  }

  std::vector<const kernels::SpmmKernel*> all() const {
    return {&csr, &ell, &bell, &cm, &cq};
  }

  Tensor w;
  sparse::CsrMatrix csr;
  sparse::EllpackMatrix ell;
  sparse::BlockedEllMatrix bell;
  sparse::CrispMatrix cm, cq;
};

TEST(SimdParity, SpmmFormatsTailHeavyBatches) {
  Rng rng(34);
  const AllFormats f(rng);
  // Batches exercising the 16-wide, 8-wide, and scalar axpy tails, and
  // both sides of the CRISP block kernels' p = 8 loop-order switch.
  for (const std::int64_t batch :
       {1, 3, 5, 7, 8, 9, 15, 17, 19, 24, 33, 100}) {
    const Tensor x = Tensor::randn({AllFormats::kCols, batch}, rng);
    for (const kernels::SpmmKernel* kernel : f.all()) {
      SCOPED_TRACE(kernel->format_name());
      expect_tier_parity([&] { return sparse::spmm(*kernel, x); });
    }
  }
}

TEST(SpmmColumns, EachColumnMatchesItsSingleColumnProductBitwise) {
  // Batched == serial serving rests on this: a column's bits must not
  // depend on how many columns share the call — across the SIMD column
  // tails and the CRISP kernels' p = 8 loop-order switch, in every tier.
  Rng rng(36);
  const AllFormats f(rng);
  const kernels::simd::Tier active = kernels::simd::active_tier();
  for (const kernels::simd::Tier tier : {active, kernels::simd::Tier::kScalar}) {
    kernels::simd::TierScope scope(tier);
    for (const std::int64_t p : {2, 3, 7, 8, 9, 16, 17, 33}) {
      const Tensor x = Tensor::randn({AllFormats::kCols, p}, rng);
      for (const kernels::SpmmKernel* kernel : f.all()) {
        const Tensor full = sparse::spmm(*kernel, x);
        std::int64_t mismatched = 0;
        for (std::int64_t j = 0; j < p; ++j) {
          Tensor xj({AllFormats::kCols, 1});
          for (std::int64_t k = 0; k < AllFormats::kCols; ++k)
            xj[k] = x[k * p + j];
          const Tensor yj = sparse::spmm(*kernel, xj);
          bool same = true;
          for (std::int64_t r = 0; r < AllFormats::kRows; ++r)
            same = same && std::bit_cast<std::uint32_t>(full[r * p + j]) ==
                               std::bit_cast<std::uint32_t>(yj[r]);
          if (!same) ++mismatched;
        }
        EXPECT_EQ(mismatched, 0)
            << kernel->format_name() << " on tier "
            << kernels::simd::tier_name(tier) << " at p = " << p;
      }
    }
  }
}

TEST(ThreadBudget, CapsNestsAndRestores) {
  ThreadGuard guard;
  kernels::set_num_threads(8);
  EXPECT_EQ(kernels::thread_budget(), 0);
  EXPECT_EQ(kernels::num_threads(), 8);
  {
    kernels::ScopedThreadBudget budget(2);
    EXPECT_EQ(kernels::thread_budget(), 2);
    EXPECT_EQ(kernels::num_threads(), 2);
    {
      kernels::ScopedThreadBudget looser(4);  // tightest enclosing cap wins
      EXPECT_EQ(kernels::num_threads(), 2);
    }
    {
      kernels::ScopedThreadBudget tighter(1);
      EXPECT_EQ(kernels::num_threads(), 1);
    }
    {
      kernels::ScopedThreadBudget none(0);  // 0 = no cap from this scope
      EXPECT_EQ(kernels::num_threads(), 2);
    }
    EXPECT_EQ(kernels::num_threads(), 2);
  }
  EXPECT_EQ(kernels::thread_budget(), 0);
  EXPECT_EQ(kernels::num_threads(), 8);
}

TEST(ThreadBudget, IsPerThread) {
  ThreadGuard guard;
  kernels::set_num_threads(8);
  kernels::ScopedThreadBudget budget(2);
  int other_thread_sees = 0;
  std::thread([&] { other_thread_sees = kernels::num_threads(); }).join();
  EXPECT_EQ(other_thread_sees, 8);  // budgets never leak across threads
  EXPECT_EQ(kernels::num_threads(), 2);
}

TEST(ThreadBudget, DoesNotChangeResults) {
  ThreadGuard guard;
  kernels::set_num_threads(8);
  Rng rng(21);
  const Tensor a = Tensor::randn({37, 53}, rng);
  const Tensor b = Tensor::randn({53, 29}, rng);
  Tensor unbudgeted({37, 29});
  matmul(as_matrix(a, 37, 53), as_matrix(b, 53, 29),
         as_matrix(unbudgeted, 37, 29));
  kernels::ScopedThreadBudget budget(2);
  Tensor budgeted({37, 29});
  matmul(as_matrix(a, 37, 53), as_matrix(b, 53, 29),
         as_matrix(budgeted, 37, 29));
  EXPECT_EQ(max_abs_diff(unbudgeted, budgeted), 0.0f);
}

TEST(NnThreading, MaxPoolForwardThreadCountInvariant) {
  ThreadGuard guard;
  Rng rng(5);
  const Tensor x = Tensor::randn({4, 6, 17, 13}, rng);
  nn::MaxPool2d pool("pool", 3, 2);
  expect_thread_invariant([&] { return pool.forward_eval(x, {}); });
  expect_thread_invariant([&] { return pool.forward(x, /*train=*/true); });
}

TEST(NnThreading, GlobalAvgPoolThreadCountInvariant) {
  ThreadGuard guard;
  Rng rng(6);
  const Tensor x = Tensor::randn({5, 7, 9, 11}, rng);
  nn::GlobalAvgPool gap("gap");
  expect_thread_invariant([&] { return gap.forward_eval(x, {}); });
}

TEST(NnThreading, BatchNormEvalThreadCountInvariant) {
  ThreadGuard guard;
  Rng rng(7);
  const Tensor x = Tensor::randn({4, 12, 9, 7}, rng);
  nn::BatchNorm2d bn("bn", 12);
  expect_thread_invariant([&] { return bn.forward_eval(x, {}); });
}

TEST(NnThreading, BatchNormTrainThreadCountInvariant) {
  ThreadGuard guard;
  Rng rng(8);
  const Tensor x = Tensor::randn({6, 12, 5, 5}, rng);
  // A fresh layer per run so running statistics start identical; the
  // returned activations AND the updated statistics must match bitwise.
  auto run = [&](int threads) {
    kernels::set_num_threads(threads);
    nn::BatchNorm2d bn("bn", 12);
    Tensor y = bn.forward(x, /*train=*/true);
    for (const nn::NamedBuffer& b : bn.buffers()) {
      const Tensor& stat = *b.tensor;
      Shape flat{y.numel() + stat.numel()};
      Tensor merged(flat);
      for (std::int64_t i = 0; i < y.numel(); ++i) merged[i] = y[i];
      for (std::int64_t i = 0; i < stat.numel(); ++i)
        merged[y.numel() + i] = stat[i];
      y = merged;
    }
    return y;
  };
  const Tensor serial = run(1);
  for (const int t : {2, 8}) {
    const Tensor parallel = run(t);
    ASSERT_TRUE(serial.same_shape(parallel));
    EXPECT_EQ(max_abs_diff(serial, parallel), 0.0f)
        << "batchnorm training forward changed at " << t << " threads";
  }
}

// ---------------------------------------------------------------------------
// Deterministic reduction (kernels/reduce.h) — the backward-pass primitive.

TEST(Reduce, ChunkCountIsPureAndBounded) {
  ThreadGuard guard;
  for (const std::int64_t total : {0LL, 1LL, 5LL, 16LL, 100LL, 4096LL}) {
    for (const std::int64_t grain : {1LL, 4LL, 1000LL}) {
      // Same answer no matter the ambient thread count.
      kernels::set_num_threads(1);
      const std::int64_t serial = kernels::reduce_chunk_count(total, grain);
      kernels::set_num_threads(8);
      EXPECT_EQ(serial, kernels::reduce_chunk_count(total, grain));
      if (total <= 0) {
        EXPECT_EQ(serial, 0);
      } else {
        EXPECT_GE(serial, 1);
        EXPECT_LE(serial, kernels::kMaxReduceChunks);
        // Chunks cover [0, total) exactly.
        const std::int64_t width = kernels::reduce_chunk_width(total, grain);
        EXPECT_EQ(serial, (total + width - 1) / width);
        EXPECT_GE(width, grain);
      }
    }
  }
}

TEST(Reduce, DeterministicReduceSumsExactly) {
  ThreadGuard guard;
  // Integer-valued floats sum exactly, so the tree's value can be checked
  // against arithmetic no matter how the pairwise merges associate.
  const std::int64_t len = 1000;
  for (const std::int64_t nparts : {1, 2, 3, 7, 16}) {
    std::vector<float> parts(static_cast<std::size_t>(nparts * len));
    for (std::int64_t p = 0; p < nparts; ++p)
      for (std::int64_t j = 0; j < len; ++j)
        parts[static_cast<std::size_t>(p * len + j)] =
            static_cast<float>(p + j % 17);
    Tensor out = Tensor::ones({len});
    kernels::deterministic_reduce(parts.data(), nparts, len, out.data());
    for (std::int64_t j = 0; j < std::min<std::int64_t>(len, 32); ++j) {
      const float expected =
          1.0f + static_cast<float>(
                     static_cast<std::int64_t>(nparts) * (j % 17) +
                     static_cast<std::int64_t>(nparts * (nparts - 1) / 2));
      EXPECT_EQ(out[j], expected) << "nparts " << nparts << " slot " << j;
    }
  }
}

TEST(Reduce, ParallelAccumulateThreadCountInvariant) {
  ThreadGuard guard;
  Rng rng(12);
  const std::int64_t total = 100, len = 512;
  const Tensor contributions = Tensor::randn({total, len}, rng);
  auto run = [&](int threads) {
    kernels::set_num_threads(threads);
    Tensor out = Tensor::ones({len});
    kernels::parallel_accumulate(
        total, /*grain=*/1, len,
        [&](float* acc, std::int64_t b0, std::int64_t b1) {
          for (std::int64_t b = b0; b < b1; ++b)
            for (std::int64_t j = 0; j < len; ++j)
              acc[j] += contributions[b * len + j];
        },
        out.data());
    return out;
  };
  const Tensor serial = run(1);
  for (const int t : {2, 8}) {
    const Tensor parallel = run(t);
    EXPECT_EQ(max_abs_diff(serial, parallel), 0.0f)
        << "parallel_accumulate changed at " << t << " threads";
  }
  // And the value is the right sum (up to float reassociation).
  Tensor naive = Tensor::ones({len});
  for (std::int64_t b = 0; b < total; ++b)
    for (std::int64_t j = 0; j < len; ++j)
      naive[j] += contributions[b * len + j];
  EXPECT_TRUE(allclose(serial, naive, 1e-4f, 1e-4f));
}

TEST(Reduce, SingleChunkAccumulatesInPlace) {
  ThreadGuard guard;
  kernels::set_num_threads(8);
  // total below any chunking threshold: the fast path writes straight into
  // out with no scratch, and still matches the serial loop bitwise.
  Tensor out = Tensor::zeros({4});
  kernels::parallel_accumulate(
      3, /*grain=*/1000, 4,
      [](float* acc, std::int64_t b0, std::int64_t b1) {
        for (std::int64_t b = b0; b < b1; ++b)
          for (std::int64_t j = 0; j < 4; ++j)
            acc[j] += static_cast<float>(b + 1);
      },
      out.data());
  for (std::int64_t j = 0; j < 4; ++j) EXPECT_EQ(out[j], 6.0f);
}

}  // namespace
}  // namespace crisp
