// serve_bench — the serving story end to end: one-at-a-time nn::predict
// versus the batched serve::Engine on the same host, dense and packed.
//
// The engine's job is throughput under a single-sample request stream (the
// paper's deployment setting): coalesce requests into real batches so the
// batch-parallel kernels stream each weight matrix once per batch instead
// of once per request. This program submits the same request stream three
// ways and prints requests/s plus the engine's latency percentiles and
// batch occupancy — the measurable version of the paper's latency story
// (Fig. 9).
//
// Scenario (model shape, mask recipe, engine options) deliberately mirrors
// the CI-gated bench/serve.cpp — keep the two in lockstep so this demo
// prints the same comparison the gate tracks. The mask recipe itself is
// shared via core::install_random_hybrid_masks.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <vector>

#include "core/block_pruning.h"
#include "deploy/packed_model.h"
#include "nn/activations.h"
#include "nn/linear.h"
#include "serve/engine.h"

using namespace crisp;

namespace {

constexpr std::int64_t kIn = 256, kHidden = 512, kClasses = 100;
constexpr int kRequests = 512;

std::shared_ptr<nn::Sequential> make_mlp() {
  Rng rng(7);  // fixed seed: every scenario serves identical weights
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
  std::vector<Tensor> samples;
  samples.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i)
    samples.push_back(Tensor::randn({kIn}, rng));
  return samples;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Sequential baseline: one CompiledModel::run per request, batch size 1
/// forever.
double run_sequential(const serve::CompiledModel& model,
                      const std::vector<Tensor>& reqs) {
  const auto t0 = std::chrono::steady_clock::now();
  float sink = 0.0f;
  for (const Tensor& r : reqs) sink += model.run(r.reshaped({1, kIn}))[0];
  const double dt = seconds_since(t0);
  (void)sink;
  return static_cast<double>(kRequests) / dt;
}

struct EngineRun {
  double rps = 0.0;
  double p50_us = 0.0, p95_us = 0.0;
  serve::EngineStats stats;
};

EngineRun run_engine(std::shared_ptr<const serve::CompiledModel> compiled,
                     const std::vector<Tensor>& reqs) {
  serve::EngineOptions opts;
  opts.max_batch = 16;
  opts.queue_depth = 256;
  opts.flush_timeout = std::chrono::microseconds(200);
  serve::Engine engine(std::move(compiled), opts);

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::future<serve::Response>> futures;
  futures.reserve(reqs.size());
  for (const Tensor& r : reqs) futures.push_back(engine.submit({r}));
  std::vector<double> latency_us;
  latency_us.reserve(reqs.size());
  for (auto& f : futures) {
    const serve::Response r = f.get();
    latency_us.push_back(static_cast<double>(
        (r.stats.queue_time + r.stats.run_time).count()));
  }
  EngineRun out;
  out.rps = static_cast<double>(kRequests) / seconds_since(t0);
  std::sort(latency_us.begin(), latency_us.end());
  out.p50_us = latency_us[latency_us.size() / 2];
  out.p95_us = latency_us[latency_us.size() * 95 / 100];
  out.stats = engine.stats();
  return out;
}

void print_engine(const char* label, const EngineRun& r, double baseline_rps) {
  std::printf("%-28s %9.0f req/s  (%.2fx)   p50 %6.0f us   p95 %6.0f us   "
              "occupancy %.1f\n",
              label, r.rps, r.rps / baseline_rps, r.p50_us, r.p95_us,
              r.stats.occupancy());
}

}  // namespace

int main() {
  std::printf("=== serve_bench: sequential predict vs batched engine ===\n\n");
  std::printf("model: %lld -> %lld -> %lld -> %lld MLP, %d single-sample "
              "requests\n\n",
              static_cast<long long>(kIn), static_cast<long long>(kHidden),
              static_cast<long long>(kHidden),
              static_cast<long long>(kClasses), kRequests);

  const std::vector<Tensor> reqs = request_stream();

  // Dense: baseline loop vs engine on the same weights.
  auto dense_compiled = serve::CompiledModel::compile(make_mlp());
  const double seq_rps = run_sequential(*dense_compiled, reqs);
  std::printf("%-28s %9.0f req/s  (1.00x)\n", "sequential predict (dense)",
              seq_rps);
  const EngineRun dense = run_engine(dense_compiled, reqs);
  print_engine("engine, batch<=16 (dense)", dense, seq_rps);

  // Packed: the same comparison from the CRISP format. The sequential loop
  // runs the same compiled model one request at a time, so it also serves
  // packed — the engine's win is batching, not a different kernel.
  auto packed_model = make_mlp();
  install_hybrid_masks(*packed_model);
  auto artifact = std::make_shared<const deploy::PackedModel>(
      deploy::PackedModel::pack(*packed_model, 16, 2, 4));
  auto packed_compiled = serve::CompiledModel::compile(packed_model, artifact);
  const double packed_seq_rps = run_sequential(*packed_compiled, reqs);
  std::printf("%-28s %9.0f req/s  (%.2fx)\n", "sequential predict (packed)",
              packed_seq_rps, packed_seq_rps / seq_rps);
  const EngineRun packed = run_engine(packed_compiled, reqs);
  print_engine("engine, batch<=16 (packed)", packed, seq_rps);

  // Quantized: the packed engine served from the int8 payload — a quarter
  // of the weight-value bytes, outputs within the per-block-row scale
  // bound of the fp32 rows above (docs/formats.md).
  auto quant_model = make_mlp();
  install_hybrid_masks(*quant_model);
  serve::CompileOptions copts;
  copts.quantize_payload = true;
  auto quant_compiled =
      serve::CompiledModel::compile(quant_model, artifact, copts);
  const EngineRun quant = run_engine(quant_compiled, reqs);
  print_engine("engine, batch<=16 (int8)", quant, seq_rps);
  std::printf("%-28s %9.1f KiB fp32 -> %.1f KiB int8 payload\n",
              "quantized artifact",
              static_cast<double>(artifact->stats().packed_payload_bits) /
                  8192.0,
              static_cast<double>(
                  quant_compiled->packed()->stats().packed_payload_bits) /
                  8192.0);

  std::printf("\nbatching wins when the weight stream amortizes across the "
              "batch; the engine\nadds the queue that makes that happen for "
              "single-sample traffic.\n");
  return 0;
}
