// Serving benchmarks (google-benchmark, linked into bench_kernels so the
// entries land in the same JSON the CI regression gate reads): sequential
// single-sample CompiledModel::run loops versus the batched serve::Engine on
// identical weights and an identical request stream, dense and packed.
//
// The acceptance bar for the engine: batched throughput (requests/s at
// batch >= 8) must beat the sequential loop on the same host. Each engine
// entry also reports p50/p95 request latency (queue + run) and batch
// occupancy as counters. threads:1 entries are the stable ones CI gates;
// the threads:4 entries document scaling and depend on the runner.
// examples/serve_bench.cpp is the narrated twin of this scenario — keep
// the model shape, mask recipe, and engine options in lockstep.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <future>
#include <memory>
#include <vector>

#include "core/block_pruning.h"
#include "deploy/packed_model.h"
#include "kernels/parallel_for.h"
#include "nn/activations.h"
#include "nn/linear.h"
#include "serve/engine.h"

namespace {

using namespace crisp;

constexpr std::int64_t kIn = 256, kHidden = 512, kClasses = 100;
constexpr std::int64_t kStream = 64;  ///< requests per measured iteration

void serve_threads(benchmark::internal::Benchmark* b) {
  b->ArgName("threads");
  b->UseRealTime();  // wall clock: worker + pool threads are the product
  for (const int t : {1, 4}) b->Arg(t);
}

std::shared_ptr<nn::Sequential> serve_mlp() {
  Rng rng(7);
  auto model = std::make_shared<nn::Sequential>("servemlp");
  model->emplace<nn::Linear>("fc1", kIn, kHidden, rng);
  model->emplace<nn::ReLU>("relu1");
  model->emplace<nn::Linear>("fc2", kHidden, kHidden, rng);
  model->emplace<nn::ReLU>("relu2");
  model->emplace<nn::Linear>("fc3", kHidden, kClasses, rng);
  return model;
}

void install_hybrid_masks(nn::Sequential& model) {
  core::install_random_hybrid_masks(model, /*block=*/16, /*n=*/2, /*m=*/4,
                                    /*pruned_ranks=*/4);
}

std::vector<Tensor> request_stream() {
  Rng rng(11);
  std::vector<Tensor> reqs;
  reqs.reserve(static_cast<std::size_t>(kStream));
  for (std::int64_t i = 0; i < kStream; ++i)
    reqs.push_back(Tensor::randn({kIn}, rng));
  return reqs;
}

void run_sequential(benchmark::State& state,
                    const serve::CompiledModel& compiled) {
  kernels::set_num_threads(static_cast<int>(state.range(0)));
  const std::vector<Tensor> reqs = request_stream();
  for (auto _ : state) {
    for (const Tensor& r : reqs) {
      Tensor y = compiled.run(r.reshaped({1, kIn}));
      benchmark::DoNotOptimize(y.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * kStream);
  kernels::set_num_threads(0);
}

void run_engine(benchmark::State& state,
                std::shared_ptr<const serve::CompiledModel> compiled) {
  kernels::set_num_threads(static_cast<int>(state.range(0)));
  serve::EngineOptions opts;
  opts.max_batch = 16;
  opts.queue_depth = 2 * kStream;
  opts.flush_timeout = std::chrono::microseconds(200);
  serve::Engine engine(std::move(compiled), opts);

  const std::vector<Tensor> reqs = request_stream();
  std::vector<double> latency_us;
  for (auto _ : state) {
    std::vector<std::future<serve::Response>> futures;
    futures.reserve(reqs.size());
    for (const Tensor& r : reqs) futures.push_back(engine.submit({r}));
    for (auto& f : futures) {
      const serve::Response resp = f.get();
      latency_us.push_back(static_cast<double>(
          (resp.stats.queue_time + resp.stats.run_time).count()));
    }
  }
  state.SetItemsProcessed(state.iterations() * kStream);
  std::sort(latency_us.begin(), latency_us.end());
  if (!latency_us.empty()) {
    state.counters["p50_lat_us"] = latency_us[latency_us.size() / 2];
    state.counters["p95_lat_us"] = latency_us[latency_us.size() * 95 / 100];
  }
  state.counters["occupancy"] = engine.stats().occupancy();
  kernels::set_num_threads(0);
}

void BM_ServeSequentialDense(benchmark::State& state) {
  run_sequential(state, *serve::CompiledModel::compile(serve_mlp()));
}
BENCHMARK(BM_ServeSequentialDense)->Apply(serve_threads);

void BM_ServeEngineDense(benchmark::State& state) {
  run_engine(state, serve::CompiledModel::compile(serve_mlp()));
}
BENCHMARK(BM_ServeEngineDense)->Apply(serve_threads);

void BM_ServeSequentialPacked(benchmark::State& state) {
  // The sequential loop runs the packed compiled model one request at a
  // time — the engine entries below differ only by batching.
  auto model = serve_mlp();
  install_hybrid_masks(*model);
  auto artifact = std::make_shared<const deploy::PackedModel>(
      deploy::PackedModel::pack(*model, 16, 2, 4));
  run_sequential(state, *serve::CompiledModel::compile(model, artifact));
}
BENCHMARK(BM_ServeSequentialPacked)->Apply(serve_threads);

void BM_ServeEnginePacked(benchmark::State& state) {
  auto model = serve_mlp();
  install_hybrid_masks(*model);
  auto artifact = std::make_shared<const deploy::PackedModel>(
      deploy::PackedModel::pack(*model, 16, 2, 4));
  run_engine(state, serve::CompiledModel::compile(model, artifact));
}
BENCHMARK(BM_ServeEnginePacked)->Apply(serve_threads);

void BM_ServeEngineQuantized(benchmark::State& state) {
  // The packed engine served from the int8 payload (CompileOptions), so
  // the latency rows sit next to BM_ServeEnginePacked's fp32 ones; the
  // payload counters record the artifact-size delta the int8 path buys.
  auto model = serve_mlp();
  install_hybrid_masks(*model);
  auto artifact = std::make_shared<const deploy::PackedModel>(
      deploy::PackedModel::pack(*model, 16, 2, 4));
  state.counters["payload_fp32_bytes"] =
      static_cast<double>(artifact->stats().packed_payload_bits) / 8.0;
  serve::CompileOptions opts;
  opts.quantize_payload = true;
  auto compiled = serve::CompiledModel::compile(model, artifact, opts);
  state.counters["payload_int8_bytes"] =
      static_cast<double>(compiled->packed()->stats().packed_payload_bits) /
      8.0;
  run_engine(state, std::move(compiled));
}
BENCHMARK(BM_ServeEngineQuantized)->Apply(serve_threads);

}  // namespace
