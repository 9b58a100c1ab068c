// Kernel microbenchmarks (google-benchmark): CPU GEMM/SpMM throughput of
// every storage format on a hybrid-pruned ResNet-50-shaped layer, swept
// over the kernel-layer thread count (the Arg is kernels::set_num_threads).
// Not a paper figure: in the committed BENCH_kernels.json (4-vCPU host,
// single thread, P = 64) CRISP SpMM takes 97.1 us, ahead of CSR
// (151.4 us), ELLPACK (129.7 us), masked dense GEMM (214.9 us), dense GEMM
// (408.2 us) and Blocked-ELL (580.8 us); its int8 payload takes 123.2 us.
// The vCPUs of that host switch between two clock speeds, so single
// entries move by up to ~1.5x between runs. Also the measurement behind the
// "threading helps, it isn't asserted" claim.
//
// The *Scalar single-thread variants force the scalar dispatch tier, so
// one JSON records the SIMD-vs-scalar speedup next to the thread sweep
// (every entry is labelled with the tier it ran on). CI's regression gate
// (tools/compare_bench.py) compares the threads:1 medians against the
// committed BENCH_kernels.json.
//
// Record a baseline with (one command line):
//   ./bench_kernels --benchmark_repetitions=5
//                   --benchmark_report_aggregates_only=true
//                   --benchmark_out=BENCH_kernels.json
//                   --benchmark_out_format=json
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "deploy/packed_model.h"
#include "kernels/parallel_for.h"
#include "kernels/simd_dispatch.h"
#include "nn/linear.h"
#include "nn/sequential.h"
#include "sparse/metadata.h"
#include "sparse/nm.h"
#include "sparse/spmm.h"
#include "tenant/overlay.h"
#include "tensor/matmul.h"

namespace {

using namespace crisp;

constexpr std::int64_t kRows = 256;   // output channels S
constexpr std::int64_t kCols = 576;   // reduction K (64 input ch x 3x3)
constexpr std::int64_t kBatch = 64;   // output positions P
constexpr std::int64_t kBlock = 16;

// Thread counts every kernel bench sweeps; results must be identical, only
// the time may move (see tests/test_kernels.cpp for the identity half).
// Wall-clock timing: CPU time only counts the calling thread, which would
// make pool workers look like free throughput.
void thread_sweep(benchmark::internal::Benchmark* b) {
  b->ArgName("threads");
  b->UseRealTime();
  for (const int t : {1, 2, 4, 8}) b->Arg(t);
}

Tensor hybrid_weights(std::int64_t n, std::int64_t m, double kappa) {
  Rng rng(7);
  Tensor w = Tensor::randn({kRows, kCols}, rng);
  Tensor scores = Tensor::rand({kRows, kCols}, rng, 0.01f, 1.0f);
  Tensor nm = sparse::nm_mask(as_matrix(scores, kRows, kCols), n, m);
  const std::int64_t k_prime =
      sparse::k_prime_for_sparsity(kCols, kBlock, n, m, kappa);
  const std::int64_t pruned =
      (kCols - k_prime) / kBlock;
  sparse::BlockGrid grid{kRows, kCols, kBlock};
  Tensor bscores = sparse::block_scores(as_matrix(scores, kRows, kCols), grid);
  std::vector<std::int64_t> prune(
      static_cast<std::size_t>(grid.grid_rows()), pruned);
  Tensor bmask = sparse::expand_block_mask(
      sparse::uniform_row_block_mask(bscores, grid, prune), grid);
  w.mul_(nm);
  w.mul_(bmask);
  return w;
}

Tensor activations() {
  Rng rng(9);
  return Tensor::randn({kCols, kBatch}, rng);
}

/// Labels every run with the dispatch tier it measured ("avx2", "scalar",
/// ...), so the JSON is self-describing on any host.
void label_tier(benchmark::State& state) {
  state.SetLabel(kernels::simd::tier_name(kernels::simd::active_tier()));
}

void run_dense_gemm(benchmark::State& state, const Tensor& w) {
  const Tensor x = activations();
  Tensor y({kRows, kBatch});
  label_tier(state);
  for (auto _ : state) {
    matmul(as_matrix(w, kRows, kCols), as_matrix(x, kCols, kBatch),
           as_matrix(y, kRows, kBatch));
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * kRows * kCols * kBatch);
}

Tensor dense_weights() {
  Rng rng(7);
  return Tensor::randn({kRows, kCols}, rng);
}

void BM_DenseGemm(benchmark::State& state) {
  kernels::set_num_threads(static_cast<int>(state.range(0)));
  run_dense_gemm(state, dense_weights());
  kernels::set_num_threads(0);
}
BENCHMARK(BM_DenseGemm)->Apply(thread_sweep);

void BM_DenseGemmScalar(benchmark::State& state) {
  // Single-thread scalar tier: the denominator of the SIMD speedup claim.
  kernels::simd::TierScope scalar(kernels::simd::Tier::kScalar);
  kernels::set_num_threads(1);
  run_dense_gemm(state, dense_weights());
  kernels::set_num_threads(0);
}
BENCHMARK(BM_DenseGemmScalar)->ArgName("threads")->Arg(1)->UseRealTime();

void BM_DenseGemmTn(benchmark::State& state) {
  // Transposed-A GEMM: the packed-A panel fixes this kernel's strided reads.
  kernels::set_num_threads(static_cast<int>(state.range(0)));
  Rng rng(7);
  const Tensor w = Tensor::randn({kCols, kRows}, rng);  // stored K x M
  const Tensor x = activations();
  Tensor y({kRows, kBatch});
  label_tier(state);
  for (auto _ : state) {
    matmul_tn(as_matrix(w, kCols, kRows), as_matrix(x, kCols, kBatch),
              as_matrix(y, kRows, kBatch));
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * kRows * kCols * kBatch);
  kernels::set_num_threads(0);
}
BENCHMARK(BM_DenseGemmTn)->Apply(thread_sweep);

void BM_MaskedDenseGemm(benchmark::State& state) {
  // The dense kernel on pruned weights: zero-skip branch gets the wins.
  kernels::set_num_threads(static_cast<int>(state.range(0)));
  run_dense_gemm(state, hybrid_weights(2, 4, 0.875));
  kernels::set_num_threads(0);
}
BENCHMARK(BM_MaskedDenseGemm)->Apply(thread_sweep);

void BM_MaskedDenseGemmScalar(benchmark::State& state) {
  kernels::simd::TierScope scalar(kernels::simd::Tier::kScalar);
  kernels::set_num_threads(1);
  run_dense_gemm(state, hybrid_weights(2, 4, 0.875));
  kernels::set_num_threads(0);
}
BENCHMARK(BM_MaskedDenseGemmScalar)->ArgName("threads")->Arg(1)->UseRealTime();

/// Shared loop for every SpmmKernel implementation: the format only changes
/// the encode step, the measured call is the polymorphic interface.
void run_spmm(benchmark::State& state, const kernels::SpmmKernel& kernel,
              std::int64_t items_per_iter) {
  kernels::set_num_threads(static_cast<int>(state.range(0)));
  const Tensor x = activations();
  Tensor y({kRows, kBatch});
  label_tier(state);
  for (auto _ : state) {
    kernel.spmm(as_matrix(x, kCols, kBatch), as_matrix(y, kRows, kBatch));
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * items_per_iter);
  kernels::set_num_threads(0);
}

void BM_CsrSpmm(benchmark::State& state) {
  const Tensor w = hybrid_weights(2, 4, 0.875);
  const auto csr = sparse::CsrMatrix::encode(as_matrix(w, kRows, kCols));
  run_spmm(state, csr, csr.nnz() * kBatch);
}
BENCHMARK(BM_CsrSpmm)->Apply(thread_sweep);

void BM_EllpackSpmm(benchmark::State& state) {
  const Tensor w = hybrid_weights(2, 4, 0.875);
  const auto ell = sparse::EllpackMatrix::encode(as_matrix(w, kRows, kCols));
  run_spmm(state, ell, kRows * ell.width() * kBatch);
}
BENCHMARK(BM_EllpackSpmm)->Apply(thread_sweep);

void BM_BlockedEllSpmm(benchmark::State& state) {
  const Tensor w = hybrid_weights(4, 4, 0.5);  // block-only pattern
  const auto bell =
      sparse::BlockedEllMatrix::encode(as_matrix(w, kRows, kCols), kBlock);
  run_spmm(state, bell, kRows * kCols * kBatch / 2);
}
BENCHMARK(BM_BlockedEllSpmm)->Apply(thread_sweep);

void BM_CrispSpmm(benchmark::State& state) {
  const Tensor w = hybrid_weights(2, 4, 0.875);
  const auto cm =
      sparse::CrispMatrix::encode(as_matrix(w, kRows, kCols), kBlock, 2, 4);
  run_spmm(state, cm, cm.slot_count() * kBatch);
}
BENCHMARK(BM_CrispSpmm)->Apply(thread_sweep);

void BM_CrispSpmmScalar(benchmark::State& state) {
  kernels::simd::TierScope scalar(kernels::simd::Tier::kScalar);
  const Tensor w = hybrid_weights(2, 4, 0.875);
  const auto cm =
      sparse::CrispMatrix::encode(as_matrix(w, kRows, kCols), kBlock, 2, 4);
  run_spmm(state, cm, cm.slot_count() * kBatch);
}
BENCHMARK(BM_CrispSpmmScalar)->ArgName("threads")->Arg(1)->UseRealTime();

void BM_CrispSpmmQuantized(benchmark::State& state) {
  // The int8 payload path (dequantized inside crisp_block_i8): same metadata,
  // a quarter of the weight-value bytes. The payload counters record the
  // bandwidth story next to the timing one.
  const Tensor w = hybrid_weights(2, 4, 0.875);
  auto cm =
      sparse::CrispMatrix::encode(as_matrix(w, kRows, kCols), kBlock, 2, 4);
  const double fp32_payload_bytes =
      static_cast<double>(cm.payload_bits()) / 8.0;
  cm.quantize_payload();
  cm.release_fp32_payload();
  state.counters["payload_fp32_bytes"] = fp32_payload_bytes;
  state.counters["payload_int8_bytes"] =
      static_cast<double>(cm.payload_bits()) / 8.0;
  run_spmm(state, cm, cm.slot_count() * kBatch);
}
BENCHMARK(BM_CrispSpmmQuantized)->Apply(thread_sweep);

// ---- per-layer entries at serving batch sizes --------------------------------
// The BM_CrispSpmm layer at the batches serving runs (the fleet serves
// almost every request at batch 1): masked dense GEMM, CRISP fp32, CRISP
// int8, and a tenant overlay of the fp32 base that keeps all but one
// surviving block per block-row. One thread, batch P as the first arg.

void layer_batches(benchmark::internal::Benchmark* b) {
  b->ArgNames({"p", "threads"});
  b->UseRealTime();
  for (const int p : {1, 16}) b->Args({p, 1});
}

/// Times `spmm(x, y)` on a kCols x P activation panel.
template <typename Spmm>
void run_layer(benchmark::State& state, Spmm&& spmm) {
  const std::int64_t p = state.range(0);
  kernels::set_num_threads(1);
  Rng rng(9);
  const Tensor x = Tensor::randn({kCols, p}, rng);
  Tensor y({kRows, p});
  label_tier(state);
  for (auto _ : state) {
    spmm(as_matrix(x, kCols, p), as_matrix(y, kRows, p));
    benchmark::DoNotOptimize(y.data());
  }
  kernels::set_num_threads(0);
}

void BM_LayerMaskedDense(benchmark::State& state) {
  const Tensor w = hybrid_weights(2, 4, 0.875);
  run_layer(state, [&](ConstMatrixView x, MatrixView y) {
    matmul(as_matrix(w, kRows, kCols), x, y);
  });
}
BENCHMARK(BM_LayerMaskedDense)->Apply(layer_batches);

void BM_LayerCrisp(benchmark::State& state) {
  const Tensor w = hybrid_weights(2, 4, 0.875);
  const auto cm =
      sparse::CrispMatrix::encode(as_matrix(w, kRows, kCols), kBlock, 2, 4);
  run_layer(state, [&](ConstMatrixView x, MatrixView y) { cm.spmm(x, y); });
}
BENCHMARK(BM_LayerCrisp)->Apply(layer_batches);

void BM_LayerCrispInt8(benchmark::State& state) {
  const Tensor w = hybrid_weights(2, 4, 0.875);
  auto cm =
      sparse::CrispMatrix::encode(as_matrix(w, kRows, kCols), kBlock, 2, 4);
  cm.quantize_payload();
  cm.release_fp32_payload();
  run_layer(state, [&](ConstMatrixView x, MatrixView y) { cm.spmm(x, y); });
}
BENCHMARK(BM_LayerCrispInt8)->Apply(layer_batches);

/// Zeroes one surviving block per block-row of `mask` (rows x cols).
void drop_one_block_per_row(Tensor& mask) {
  const sparse::BlockGrid grid{kRows, kCols, kBlock};
  for (std::int64_t br = 0; br < grid.grid_rows(); ++br) {
    std::vector<std::int64_t> live;
    for (std::int64_t bc = 0; bc < grid.grid_cols(); ++bc) {
      bool any = false;
      for (std::int64_t r = br * kBlock; r < (br + 1) * kBlock; ++r)
        for (std::int64_t c = bc * kBlock;
             c < bc * kBlock + grid.col_extent(bc); ++c)
          any = any || mask[r * kCols + c] != 0.0f;
      if (any) live.push_back(bc);
    }
    const std::int64_t bc = live[static_cast<std::size_t>(br) % live.size()];
    for (std::int64_t r = br * kBlock; r < (br + 1) * kBlock; ++r)
      for (std::int64_t c = bc * kBlock;
           c < bc * kBlock + grid.col_extent(bc); ++c)
        mask[r * kCols + c] = 0.0f;
  }
}

void BM_LayerOverlay(benchmark::State& state) {
  Rng rng(7);
  nn::Sequential model("layer");
  model.emplace<nn::Linear>("fc", kCols, kRows, rng);
  nn::Parameter& wp = *model.prunable_parameters().front();
  wp.value = hybrid_weights(2, 4, 0.875);
  wp.mask = Tensor({kRows, kCols});
  for (std::int64_t i = 0; i < wp.value.numel(); ++i)
    wp.mask[i] = wp.value[i] != 0.0f ? 1.0f : 0.0f;
  const auto base =
      tenant::BaseArtifact::create(std::make_shared<const deploy::PackedModel>(
          deploy::PackedModel::pack(model, kBlock, 2, 4)));
  drop_one_block_per_row(wp.mask);
  const auto delta = std::make_shared<const tenant::MaskDelta>(
      tenant::MaskDelta::from_model(*base, model));
  const tenant::OverlayMatrix overlay(base, delta, wp.name);
  run_layer(state,
            [&](ConstMatrixView x, MatrixView y) { overlay.spmm(x, y); });
}
BENCHMARK(BM_LayerOverlay)->Apply(layer_batches);

}  // namespace

BENCHMARK_MAIN();
