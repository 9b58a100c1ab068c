// Serving-layer tests: CompiledModel immutability/lifetime guarantees, the
// batched Engine's correctness under concurrent producers and mixed
// shapes, bounded-queue backpressure (block and reject), clean shutdown
// draining, and the packed-execution lifetime-hazard regression.
//
// The load-bearing invariant: batching never changes the math. Every
// engine response must equal the serial single-sample forward of the same
// input — bit-identical on the dense path (per-row kernels, per-element
// ops), and within kernel rounding on the packed path (the packed Linear
// vectorizes over the batch column, so the batch tail path may differ in
// the last bit).
#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/block_pruning.h"
#include "kernels/parallel_for.h"
#include "deploy/packed_model.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "serve/engine.h"
#include "thread_guard.h"

namespace crisp::serve {
namespace {

using core::install_random_hybrid_masks;
using crisp::testing::ThreadGuard;

/// Conv net that accepts any input H, W (global pooling before the head).
std::shared_ptr<nn::Sequential> make_convnet() {
  Rng rng(7);
  auto model = std::make_shared<nn::Sequential>("servenet");
  nn::Conv2dSpec c1;
  c1.in_channels = 3;
  c1.out_channels = 16;
  c1.kernel = 3;
  c1.padding = 1;
  model->emplace<nn::Conv2d>("conv1", c1, rng);
  model->emplace<nn::ReLU>("relu1");
  model->emplace<nn::GlobalAvgPool>("gap");
  model->emplace<nn::Flatten>("flatten");
  model->emplace<nn::Linear>("fc", 16, 8, rng);
  return model;
}

std::shared_ptr<nn::Sequential> make_mlp() {
  Rng rng(9);
  auto model = std::make_shared<nn::Sequential>("servemlp");
  model->emplace<nn::Linear>("fc1", 32, 24, rng);
  model->emplace<nn::ReLU>("relu");
  model->emplace<nn::Linear>("fc2", 24, 8, rng);
  return model;
}

/// Serial single-sample reference through the same compiled artifact.
Tensor serial_reference(const CompiledModel& compiled, const Tensor& sample) {
  Shape batched{1};
  batched.insert(batched.end(), sample.shape().begin(), sample.shape().end());
  Tensor out = compiled.run(sample.reshaped(batched));
  Shape flat(out.shape().begin() + 1, out.shape().end());
  return out.reshaped(flat);
}

Tensor random_sample(std::uint64_t seed, Shape shape) {
  Rng rng(seed);
  return Tensor::randn(std::move(shape), rng);
}

TEST(CompiledModel, DenseRunMatchesPredict) {
  auto model = make_convnet();
  Rng xrng(5);
  const Tensor x = Tensor::randn({3, 3, 8, 8}, xrng);
  const Tensor want = nn::predict(*model, x);
  auto compiled = CompiledModel::compile(model);
  EXPECT_FALSE(compiled->has_packed());
  EXPECT_TRUE(compiled->packed_layers().empty());
  EXPECT_FLOAT_EQ(max_abs_diff(want, compiled->run(x)), 0.0f);
}

TEST(CompiledModel, PackedRunMatchesMaskedDense) {
  auto model = make_convnet();
  install_random_hybrid_masks(*model, 8, 2, 4, 1);
  Rng xrng(5);
  const Tensor x = Tensor::randn({3, 3, 8, 8}, xrng);
  const Tensor dense_out = nn::predict(*model, x);

  auto packed = std::make_shared<const deploy::PackedModel>(
      deploy::PackedModel::pack(*model, 8, 2, 4));
  auto compiled = CompiledModel::compile(model, packed);
  EXPECT_TRUE(compiled->has_packed());
  EXPECT_EQ(compiled->packed_layers().size(), packed->entries().size());
  // Same multiplications in a different accumulation order.
  EXPECT_LE(max_abs_diff(dense_out, compiled->run(x)), 1e-4f);
}

TEST(CompiledModel, KeepsArtifactAndModelAlive) {
  Tensor x = random_sample(5, {2, 3, 8, 8});
  Tensor want;
  std::shared_ptr<const CompiledModel> compiled;
  {
    auto model = make_convnet();
    install_random_hybrid_masks(*model, 8, 2, 4, 1);
    auto packed = std::make_shared<const deploy::PackedModel>(
        deploy::PackedModel::pack(*model, 8, 2, 4));
    compiled = CompiledModel::compile(model, packed);
    want = compiled->run(x);
  }
  // Every external reference is gone; the compiled artifact still serves.
  EXPECT_FLOAT_EQ(max_abs_diff(want, compiled->run(x)), 0.0f);
}

// Regression for the historical attach_packed lifetime hazard: GEMM hooks
// used to hold raw pointers into the caller's PackedModel, so destroying
// it left the model dangling. The supported path is a CompiledModel whose
// kernel table co-owns its kernels via aliasing shared_ptrs — also after
// substitute() swaps some of them — so every caller-side handle (the
// model, the artifacts, the replacement kernel map) may die right after
// compile.
TEST(PackedExecLifetime, CompiledModelSurvivesHandleDestruction) {
  Tensor x = random_sample(5, {2, 3, 8, 8});
  Tensor want;
  std::shared_ptr<const CompiledModel> compiled;
  {
    auto model = make_convnet();
    install_random_hybrid_masks(*model, 8, 2, 4, 1);
    want = nn::predict(*model, x);
    auto packed = std::make_shared<const deploy::PackedModel>(
        deploy::PackedModel::pack(*model, 8, 2, 4));
    auto other = std::make_shared<const deploy::PackedModel>(*packed);
    std::map<std::string, std::shared_ptr<const kernels::SpmmKernel>> kernels;
    for (const deploy::PackedEntry& e : other->entries())
      kernels.emplace(e.name, std::shared_ptr<const kernels::SpmmKernel>(
                                  other, &e.matrix));
    compiled = CompiledModel::compile(model, packed)->substitute(kernels);
    other.reset();  // only the table's aliasing references remain
    packed.reset();
  }
  EXPECT_LE(max_abs_diff(want, compiled->run(x)), 1e-4f);
}

TEST(CompiledModel, QuantizedCompileBuildsPrivateInt8Artifact) {
  auto model = make_mlp();
  install_random_hybrid_masks(*model, 8, 2, 4, 1);
  auto packed = std::make_shared<const deploy::PackedModel>(
      deploy::PackedModel::pack(*model, 8, 2, 4));
  ASSERT_FALSE(packed->quantized());

  serve::CompileOptions opts;
  opts.quantize_payload = true;
  auto compiled = CompiledModel::compile(model, packed, opts);
  EXPECT_TRUE(compiled->quantized());
  EXPECT_EQ(compiled->packed_layers().size(), packed->entries().size());
  // The caller's artifact stays fp32; the compile bound a private copy
  // whose payload is a quarter of the fp32 bytes plus the scales.
  EXPECT_FALSE(packed->quantized());
  ASSERT_NE(compiled->packed(), nullptr);
  EXPECT_LT(compiled->packed()->stats().packed_payload_bits,
            packed->stats().packed_payload_bits / 2);

  // Regression: a keep_fp32 artifact is quantized() but still *executes*
  // fp32 (spmm prefers the fp32 slots), so compile must still build an
  // int8-only copy — and a compile without the option must not report
  // quantized serving.
  auto keep_model = make_mlp();
  auto keep_both = std::make_shared<deploy::PackedModel>(
      deploy::PackedModel::pack(*model, 8, 2, 4));
  keep_both->quantize_payloads(/*keep_fp32=*/true);
  ASSERT_TRUE(keep_both->quantized());
  ASSERT_FALSE(keep_both->serves_int8());
  auto keep_compiled = CompiledModel::compile(keep_model, keep_both, opts);
  EXPECT_TRUE(keep_compiled->quantized());
  ASSERT_NE(keep_compiled->packed(), nullptr);
  EXPECT_TRUE(keep_compiled->packed()->serves_int8());

  auto plain_model = make_mlp();
  auto plain = CompiledModel::compile(plain_model, keep_both);
  EXPECT_FALSE(plain->quantized());  // kernels run the fp32 slots
}

// The tentpole invariant for quantized serving: an int8 engine's outputs
// equal the dense forward of the *dequantized* weights within kernel
// rounding (dequantize-on-the-fly == dequantize-up-front), stay within the
// propagated quantization error of the fp32 engine, and are bit-identical
// across kernel thread counts.
TEST(Engine, QuantizedEngineParityWithFp32Engine) {
  auto model = make_mlp();
  install_random_hybrid_masks(*model, 8, 2, 4, 1);
  auto packed = std::make_shared<const deploy::PackedModel>(
      deploy::PackedModel::pack(*model, 8, 2, 4));
  auto fp32_compiled = CompiledModel::compile(model, packed);

  // A second model instance for the quantized compile (one model could
  // back both; a separate one also covers independently built models).
  auto qmodel = make_mlp();
  install_random_hybrid_masks(*qmodel, 8, 2, 4, 1);
  serve::CompileOptions qopts;
  qopts.quantize_payload = true;
  auto q_compiled = CompiledModel::compile(qmodel, packed, qopts);
  ASSERT_TRUE(q_compiled->quantized());

  // Dense reference of the dequantized weights: unpack the quantized
  // artifact into a third model instance.
  auto dq_model = make_mlp();
  ASSERT_NE(q_compiled->packed(), nullptr);
  q_compiled->packed()->unpack_into(*dq_model);

  constexpr int kRequests = 24;
  ThreadGuard guard;
  std::vector<Tensor> outputs_at_threads;
  for (const int threads : {1, 2, 8}) {
    kernels::set_num_threads(threads);
    EngineOptions opts;
    opts.max_batch = 8;
    opts.flush_timeout = std::chrono::microseconds(2000);
    // Both engines serve concurrently from the same request stream.
    Engine fp32_engine(fp32_compiled);
    Engine q_engine(q_compiled, opts);

    std::vector<std::future<Response>> ffp, fq;
    for (int i = 0; i < kRequests; ++i) {
      const Tensor sample =
          random_sample(static_cast<std::uint64_t>(4000 + i), {32});
      ffp.push_back(fp32_engine.submit({sample}));
      fq.push_back(q_engine.submit({sample}));
    }

    Tensor stacked({kRequests, 8});
    for (int i = 0; i < kRequests; ++i) {
      const Tensor sample =
          random_sample(static_cast<std::uint64_t>(4000 + i), {32});
      const Tensor qout = fq[static_cast<std::size_t>(i)].get().output;
      const Tensor fout = ffp[static_cast<std::size_t>(i)].get().output;

      // (a) Exact against the dequantized-weights forward (kernel rounding
      // only — the engine batches, the reference runs B=1).
      const Tensor want = nn::predict(*dq_model, sample.reshaped({1, 32}))
                              .reshaped({8});
      ASSERT_TRUE(qout.same_shape(want));
      EXPECT_LE(max_abs_diff(qout, want), 1e-4f)
          << "request " << i << " at " << threads << " threads";

      // (b) Sanity: quantization moved the output by a bounded, small
      // amount relative to the fp32 engine (weights are O(1), scales are
      // O(1/127); anything past this indicates a broken scale).
      EXPECT_LE(max_abs_diff(qout, fout), 1.0f) << "request " << i;

      std::memcpy(stacked.data() + i * 8, qout.data(), 8 * sizeof(float));
    }
    outputs_at_threads.push_back(std::move(stacked));
  }

  // (c) Bit-identical across 1/2/8 kernel threads.
  for (std::size_t t = 1; t < outputs_at_threads.size(); ++t)
    EXPECT_FLOAT_EQ(
        max_abs_diff(outputs_at_threads[0], outputs_at_threads[t]), 0.0f)
        << "quantized serve output changed with the thread count";
}

TEST(Engine, SingleRequestMatchesSerial) {
  auto compiled = CompiledModel::compile(make_convnet());
  Engine engine(compiled);
  const Tensor sample = random_sample(11, {3, 8, 8});
  Response r = engine.submit({sample}).get();
  const Tensor want = serial_reference(*compiled, sample);
  ASSERT_TRUE(r.output.same_shape(want));
  EXPECT_FLOAT_EQ(max_abs_diff(r.output, want), 0.0f);
  EXPECT_GE(r.stats.batch_size, 1);
  EXPECT_GE(r.stats.run_time.count(), 0);
}

TEST(Engine, ConcurrentProducersBitIdenticalToSerial) {
  auto compiled = CompiledModel::compile(make_convnet());
  EngineOptions opts;
  opts.max_batch = 8;
  opts.flush_timeout = std::chrono::microseconds(2000);
  Engine engine(compiled, opts);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 16;
  std::vector<std::vector<std::future<Response>>> futures(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        futures[static_cast<std::size_t>(p)].push_back(engine.submit(
            {random_sample(static_cast<std::uint64_t>(100 + p * 1000 + i),
                           {3, 8, 8})}));
      }
    });
  }
  for (auto& t : producers) t.join();

  for (int p = 0; p < kProducers; ++p) {
    for (int i = 0; i < kPerProducer; ++i) {
      Response r = futures[static_cast<std::size_t>(p)]
                       [static_cast<std::size_t>(i)].get();
      const Tensor want = serial_reference(
          *compiled, random_sample(
                         static_cast<std::uint64_t>(100 + p * 1000 + i),
                         {3, 8, 8}));
      ASSERT_TRUE(r.output.same_shape(want));
      EXPECT_FLOAT_EQ(max_abs_diff(r.output, want), 0.0f)
          << "producer " << p << " request " << i << " diverged in a batch of "
          << r.stats.batch_size;
    }
  }

  const EngineStats s = engine.stats();
  EXPECT_EQ(s.requests, kProducers * kPerProducer);
  EXPECT_GE(s.batches, 1);
  EXPECT_LE(s.max_batch, opts.max_batch);
  EXPECT_GE(s.occupancy(), 1.0);
}

TEST(Engine, MixedShapeRequestsAreGroupedNotDropped) {
  auto compiled = CompiledModel::compile(make_convnet());
  EngineOptions opts;
  opts.max_batch = 8;
  opts.flush_timeout = std::chrono::microseconds(2000);
  Engine engine(compiled, opts);

  const Shape shapes[] = {{3, 8, 8}, {3, 10, 10}, {3, 6, 12}};
  std::vector<std::future<Response>> futures;
  std::vector<Tensor> samples;
  for (int i = 0; i < 24; ++i) {
    samples.push_back(random_sample(static_cast<std::uint64_t>(500 + i),
                                    shapes[i % 3]));
    futures.push_back(engine.submit({samples.back()}));
  }
  for (int i = 0; i < 24; ++i) {
    Response r = futures[static_cast<std::size_t>(i)].get();
    const Tensor want = serial_reference(*compiled, samples[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(r.output.same_shape(want));
    EXPECT_FLOAT_EQ(max_abs_diff(r.output, want), 0.0f) << "request " << i;
  }
}

TEST(Engine, PackedModelServesWithinKernelRounding) {
  auto model = make_mlp();
  install_random_hybrid_masks(*model, 8, 2, 4, 1);
  auto packed = std::make_shared<const deploy::PackedModel>(
      deploy::PackedModel::pack(*model, 8, 2, 4));
  auto compiled = CompiledModel::compile(model, packed);
  ASSERT_EQ(compiled->packed_layers().size(), 2u);

  EngineOptions opts;
  opts.max_batch = 8;
  opts.flush_timeout = std::chrono::microseconds(2000);
  opts.thread_budget = 1;
  Engine engine(compiled, opts);

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 32; ++i)
    futures.push_back(
        engine.submit({random_sample(static_cast<std::uint64_t>(900 + i),
                                     {32})}));
  for (int i = 0; i < 32; ++i) {
    Response r = futures[static_cast<std::size_t>(i)].get();
    const Tensor want = serial_reference(
        *compiled,
        random_sample(static_cast<std::uint64_t>(900 + i), {32}));
    ASSERT_TRUE(r.output.same_shape(want));
    // The packed Linear kernel vectorizes over the batch column, so the
    // B=1 reference and the batched run may differ by FMA contraction.
    EXPECT_LE(max_abs_diff(r.output, want), 1e-5f) << "request " << i;
  }
}

TEST(Engine, RejectPolicyRefusesAtFullQueue) {
  auto compiled = CompiledModel::compile(make_convnet());
  EngineOptions opts;
  opts.max_batch = 1;  // one request per forward
  opts.queue_depth = 2;
  opts.flush_timeout = std::chrono::microseconds(0);
  opts.overflow = EngineOptions::Overflow::kReject;
  Engine engine(compiled, opts);

  // A heavyweight first request keeps the worker busy for milliseconds
  // while microsecond-scale submits flood the bounded queue behind it, so
  // a rejection is guaranteed long before the backlog drains. A refusal
  // completes its future with kRejected before submit returns.
  std::vector<std::future<Response>> futures;
  futures.push_back(engine.submit({random_sample(1, {3, 192, 192})}));
  bool rejected = false;
  for (int i = 0; i < 64 && !rejected; ++i) {
    std::future<Response> f = engine.submit(
        {random_sample(static_cast<std::uint64_t>(10 + i), {3, 8, 8})});
    if (f.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      const Response r = f.get();
      if (r.status == Response::Status::kRejected) {
        rejected = true;
        continue;
      }
      EXPECT_EQ(r.status, Response::Status::kOk);
    } else {
      futures.push_back(std::move(f));
    }
  }
  EXPECT_TRUE(rejected);
  EXPECT_GE(engine.stats().rejected, 1);
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
}

TEST(Engine, BlockPolicyAbsorbsBursts) {
  auto compiled = CompiledModel::compile(make_mlp());
  EngineOptions opts;
  opts.max_batch = 4;
  opts.queue_depth = 2;
  opts.flush_timeout = std::chrono::microseconds(100);
  opts.overflow = EngineOptions::Overflow::kBlock;
  Engine engine(compiled, opts);

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 20; ++i)
    futures.push_back(
        engine.submit({random_sample(static_cast<std::uint64_t>(i),
                                     {32})}));
  for (int i = 0; i < 20; ++i) {
    Response r = futures[static_cast<std::size_t>(i)].get();
    const Tensor want = serial_reference(
        *compiled, random_sample(static_cast<std::uint64_t>(i), {32}));
    EXPECT_FLOAT_EQ(max_abs_diff(r.output, want), 0.0f) << "request " << i;
  }
  EXPECT_EQ(engine.stats().requests, 20);
  EXPECT_EQ(engine.stats().rejected, 0);
}

TEST(Engine, ShutdownDrainsInFlightWork) {
  auto compiled = CompiledModel::compile(make_mlp());
  EngineOptions opts;
  opts.max_batch = 4;
  opts.flush_timeout = std::chrono::milliseconds(50);
  Engine engine(compiled, opts);

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 12; ++i)
    futures.push_back(
        engine.submit({random_sample(static_cast<std::uint64_t>(i),
                                     {32})}));
  engine.shutdown();

  for (int i = 0; i < 12; ++i) {
    Response r = futures[static_cast<std::size_t>(i)].get();  // must not hang
    const Tensor want = serial_reference(
        *compiled, random_sample(static_cast<std::uint64_t>(i), {32}));
    EXPECT_FLOAT_EQ(max_abs_diff(r.output, want), 0.0f) << "request " << i;
  }
  EXPECT_THROW(engine.submit({random_sample(99, {32})}), std::runtime_error);
  EXPECT_EQ(engine.stats().requests, 12);
}

// Destroying an engine while a kBlock producer is parked inside submit()
// must wake the producer (it throws) and wait for it to leave the
// engine's internals before they are freed.
TEST(Engine, ShutdownReleasesBlockedSubmitters) {
  auto compiled = CompiledModel::compile(make_convnet());
  EngineOptions opts;
  opts.max_batch = 1;
  opts.queue_depth = 1;
  opts.flush_timeout = std::chrono::microseconds(0);
  opts.overflow = EngineOptions::Overflow::kBlock;

  std::vector<std::future<Response>> futures;
  std::int64_t completed = 0, refused = 0;
  {
    Engine engine(compiled, opts);
    // Heavy head request keeps the worker busy; the queue behind it fills.
    futures.push_back(engine.submit({random_sample(1, {3, 192, 192})}));
    std::thread producer([&] {
      for (int i = 0; i < 4; ++i) {
        try {
          futures.push_back(engine.submit(
              {random_sample(static_cast<std::uint64_t>(20 + i), {3, 8, 8})}));
        } catch (const std::runtime_error&) {
          ++refused;  // woken by shutdown while parked (or submitted after)
        }
      }
    });
    engine.shutdown();  // races the producer on purpose
    producer.join();
  }  // engine destroyed; any parked producer must already be gone

  for (auto& f : futures) {
    EXPECT_NO_THROW(f.get());  // accepted requests were all served
    ++completed;
  }
  EXPECT_EQ(completed + refused, 5);
}

TEST(Engine, BadShapeRequestFailsItsFutureOnly) {
  auto compiled = CompiledModel::compile(make_mlp());
  EngineOptions opts;
  opts.flush_timeout = std::chrono::microseconds(0);
  Engine engine(compiled, opts);

  auto bad = engine.submit({random_sample(1, {7})});  // fc1 wants 32 features
  auto good = engine.submit({random_sample(2, {32})});
  EXPECT_THROW(bad.get(), std::exception);
  EXPECT_NO_THROW(good.get());
}

// Two thread-budgeted engines sharing one CompiledModel: concurrent
// forward_eval on the same frozen layers, each engine's pool usage pinned.
TEST(Engine, TwoEnginesShareOneCompiledModel) {
  auto model = make_convnet();
  install_random_hybrid_masks(*model, 8, 2, 4, 1);
  auto packed = std::make_shared<const deploy::PackedModel>(
      deploy::PackedModel::pack(*model, 8, 2, 4));
  auto compiled = CompiledModel::compile(model, packed);

  EngineOptions opts;
  opts.max_batch = 4;
  opts.flush_timeout = std::chrono::microseconds(500);
  opts.thread_budget = 1;
  Engine a(compiled, opts);
  Engine b(compiled, opts);

  std::vector<std::future<Response>> fa, fb;
  std::thread ta([&] {
    for (int i = 0; i < 16; ++i)
      fa.push_back(a.submit(
          {random_sample(static_cast<std::uint64_t>(3000 + i), {3, 8, 8})}));
  });
  std::thread tb([&] {
    for (int i = 0; i < 16; ++i)
      fb.push_back(b.submit(
          {random_sample(static_cast<std::uint64_t>(3000 + i), {3, 8, 8})}));
  });
  ta.join();
  tb.join();

  for (int i = 0; i < 16; ++i) {
    const Tensor want = serial_reference(
        *compiled,
        random_sample(static_cast<std::uint64_t>(3000 + i), {3, 8, 8}));
    const Tensor got_a = fa[static_cast<std::size_t>(i)].get().output;
    const Tensor got_b = fb[static_cast<std::size_t>(i)].get().output;
    // Conv kernels run per sample, so even the packed path is bit-stable
    // against the serial reference here; both engines must agree exactly.
    EXPECT_LE(max_abs_diff(got_a, want), 1e-5f) << "engine a, request " << i;
    EXPECT_FLOAT_EQ(max_abs_diff(got_a, got_b), 0.0f) << "request " << i;
  }
}

}  // namespace
}  // namespace crisp::serve
