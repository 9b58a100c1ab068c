// Hot model swap on a live engine (Engine::swap_model) and its tenant
// front door (Router::refresh_tenant — tested in tests/test_tenant.cpp).
//
// The contract under test: swapping the served model on a running engine
// never fails an in-flight request and never produces a torn read. A batch
// already executing completes on the artifact it started with (its
// shared_ptr keeps it alive); every batch formed after the swap runs on
// the new artifact; the swap point sits between batches, never inside one.
// So under concurrent mixed-priority producers and a swapper thread
// toggling between two models A and B, every response must be kOk and its
// output must be bit-identical to either A's or B's serial reference for
// that sample — nothing in between. (Dense path: batching is bit-exact,
// see tests/test_serve.cpp.) This file also runs under the CI TSan job.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "nn/activations.h"
#include "nn/linear.h"
#include "serve/engine.h"

namespace crisp::serve {
namespace {

/// Same architecture, different weights per seed — shape-compatible swap
/// targets whose outputs differ on every sample.
std::shared_ptr<nn::Sequential> make_mlp(std::uint64_t seed) {
  Rng rng(seed);
  auto model = std::make_shared<nn::Sequential>("swapmlp");
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

Tensor random_sample(std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::randn({32}, rng);
}

TEST(EngineSwap, SwapServesNewModelAndKeepsOldResponsesValid) {
  auto modelA = CompiledModel::compile(make_mlp(9));
  auto modelB = CompiledModel::compile(make_mlp(1234));
  const Tensor x = random_sample(5);
  const Tensor refA = serial_reference(*modelA, x);
  const Tensor refB = serial_reference(*modelB, x);
  ASSERT_GT(max_abs_diff(refA, refB), 0.0f);  // the swap is observable

  Engine engine(modelA);
  EXPECT_EQ(engine.model().get(), modelA.get());
  Response before = engine.submit({x}).get();
  ASSERT_EQ(before.status, Response::Status::kOk);
  EXPECT_FLOAT_EQ(max_abs_diff(before.output, refA), 0.0f);

  engine.swap_model(modelB);
  EXPECT_EQ(engine.model().get(), modelB.get());
  Response after = engine.submit({x}).get();
  ASSERT_EQ(after.status, Response::Status::kOk);
  EXPECT_FLOAT_EQ(max_abs_diff(after.output, refB), 0.0f);

  const EngineStats s = engine.stats();
  EXPECT_EQ(s.swaps, 1);
  EXPECT_EQ(s.requests, 2);
}

TEST(EngineSwap, NullModelThrows) {
  Engine engine(CompiledModel::compile(make_mlp(9)));
  EXPECT_THROW(engine.swap_model(nullptr), std::runtime_error);
  EXPECT_EQ(engine.stats().swaps, 0);
}

// The concurrency contract: mixed-priority producers race a swapper thread
// that toggles A <-> B. Zero failed requests, zero torn reads — every
// output is exactly refA or refB for its sample.
TEST(EngineSwap, ConcurrentSwapsUnderMixedPriorityLoadNoTornReads) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 48;
  constexpr int kSwaps = 64;

  auto modelA = CompiledModel::compile(make_mlp(9));
  auto modelB = CompiledModel::compile(make_mlp(1234));

  // Per-request distinct samples with both references precomputed, so a
  // torn or mixed-model forward cannot masquerade as a valid output.
  struct Case {
    Tensor sample, refA, refB;
  };
  std::vector<Case> cases(kProducers * kPerProducer);
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    Case& c = cases[static_cast<std::size_t>(i)];
    c.sample = random_sample(100 + static_cast<std::uint64_t>(i));
    c.refA = serial_reference(*modelA, c.sample);
    c.refB = serial_reference(*modelB, c.sample);
    ASSERT_GT(max_abs_diff(c.refA, c.refB), 0.0f) << "case " << i;
  }

  EngineOptions opts;
  opts.max_batch = 4;  // several requests per forward: swaps land between
                       // batches that really carry concurrent traffic
  // Deep enough for the whole burst: displacement shedding is the
  // scheduler's business (tests/test_serve_sched.cpp), not the swap's —
  // here every accepted request must serve, on one model or the other.
  opts.queue_depth = kProducers * kPerProducer;
  Engine engine(modelA, opts);

  std::atomic<bool> done{false};
  std::thread swapper([&] {
    for (int s = 0; s < kSwaps && !done.load(); ++s) {
      engine.swap_model((s % 2 == 0) ? modelB : modelA);
      std::this_thread::yield();
    }
  });

  std::vector<std::future<Response>> futures(cases.size());
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int idx = p * kPerProducer + i;
        Request r;
        r.sample = cases[static_cast<std::size_t>(idx)].sample;
        r.priority = static_cast<Priority>(idx % kPriorityCount);
        futures[static_cast<std::size_t>(idx)] = engine.submit(std::move(r));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  done.store(true);
  swapper.join();

  std::int64_t from_a = 0, from_b = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    Response r = futures[i].get();
    ASSERT_EQ(r.status, Response::Status::kOk) << "request " << i;
    const float da = max_abs_diff(r.output, cases[i].refA);
    const float db = max_abs_diff(r.output, cases[i].refB);
    ASSERT_TRUE(da == 0.0f || db == 0.0f)
        << "request " << i << " matches neither model exactly (dA=" << da
        << ", dB=" << db << ") — torn read";
    (da == 0.0f ? from_a : from_b) += 1;
  }

  const EngineStats s = engine.stats();
  EXPECT_EQ(s.requests, static_cast<std::int64_t>(cases.size()));
  EXPECT_EQ(s.shed + s.expired + s.cancelled + s.rejected + s.infeasible, 0);
  EXPECT_GT(s.swaps, 0);
  // Both models actually served traffic (the swapper is fast, but the
  // producers overlap it; a fully one-sided split would mean the swap
  // never took effect mid-stream). Not a hard guarantee — only report.
  RecordProperty("served_from_a", static_cast<int>(from_a));
  RecordProperty("served_from_b", static_cast<int>(from_b));
}

}  // namespace
}  // namespace crisp::serve
