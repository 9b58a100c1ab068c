// Scheduling-layer tests for serve::Engine: priority classes, deadlines,
// admission control (watermark bands, infeasible-deadline rejection), load
// shedding (displacement at a full queue, in-queue expiry), the
// drain-vs-cancel shutdown statuses, and the stats ledger reconciling
// every accepted request to exactly one terminal outcome.
//
// The load-bearing invariant carried over from tests/test_serve.cpp:
// scheduling never changes the math. Priorities and deadlines decide
// *whether and when* a request runs; every served response stays
// bit-identical to the serial forward of the same sample on the dense
// path, at any kernel thread count.
//
// Timing discipline: tests that need the worker pinned down submit a
// "blocker" sample large enough (conv over 512x512) that its forward
// outlasts the microsecond-scale submits behind it by orders of magnitude,
// on any build type this suite runs under (Release, Debug, TSan).
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "kernels/parallel_for.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "serve/engine.h"
#include "thread_guard.h"

namespace crisp::serve {
namespace {

using crisp::testing::ThreadGuard;

/// Conv net that accepts any input H, W (global pooling before the head).
std::shared_ptr<nn::Sequential> make_convnet() {
  Rng rng(7);
  auto model = std::make_shared<nn::Sequential>("schednet");
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

Tensor random_sample(std::uint64_t seed, Shape shape) {
  Rng rng(seed);
  return Tensor::randn(std::move(shape), rng);
}

/// A sample whose forward keeps the worker busy for tens of milliseconds
/// at minimum — the scheduler tests park the worker behind one of these.
Tensor blocker_sample(std::uint64_t seed) {
  return random_sample(seed, {3, 512, 512});
}

Request make_request(Tensor sample, Priority priority,
                     std::chrono::microseconds deadline =
                         std::chrono::microseconds(0)) {
  Request r;
  r.sample = std::move(sample);
  r.priority = priority;
  r.deadline = deadline;
  return r;
}

/// Serial single-sample reference through the same compiled artifact.
Tensor serial_reference(const CompiledModel& compiled, const Tensor& sample) {
  Shape batched{1};
  batched.insert(batched.end(), sample.shape().begin(), sample.shape().end());
  Tensor out = compiled.run(sample.reshaped(batched));
  Shape flat(out.shape().begin() + 1, out.shape().end());
  return out.reshaped(flat);
}

/// Lets the worker pop the just-submitted blocker before the test floods
/// the queue behind it. The blocker forward runs far longer than this.
void let_worker_pick_up_blocker() {
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
}

// A deadline that has passed while the request sat behind a busy worker
// sheds the request with Status::kExpired — it is never served late, and
// it never rides a forming batch.
TEST(Scheduling, ExpiredRequestsAreShedNotServed) {
  auto compiled = CompiledModel::compile(make_convnet());
  EngineOptions opts;
  opts.max_batch = 8;
  opts.flush_timeout = std::chrono::microseconds(0);
  Engine engine(compiled, opts);

  // The blocker is the first batch, so no run-time EMA exists yet and the
  // short deadlines below pass admission (nothing to estimate against).
  auto blocker = engine.submit(
      make_request(blocker_sample(1), Priority::kStandard));
  let_worker_pick_up_blocker();

  constexpr int kDoomed = 4;
  std::vector<std::future<Response>> doomed;
  for (int i = 0; i < kDoomed; ++i)
    doomed.push_back(engine.submit(
        make_request(random_sample(static_cast<std::uint64_t>(10 + i), {3, 8, 8}),
                     Priority::kStandard, std::chrono::milliseconds(1))));

  for (auto& f : doomed) {
    Response r = f.get();
    EXPECT_EQ(r.status, Response::Status::kExpired);
    EXPECT_TRUE(r.output.empty());
    EXPECT_EQ(r.stats.batch_size, 0);
    EXPECT_EQ(r.stats.batch_seq, -1);
    EXPECT_GT(r.stats.queue_time.count(), 0);
  }
  EXPECT_EQ(blocker.get().status, Response::Status::kOk);

  const EngineStats s = engine.stats();
  EXPECT_EQ(s.expired, kDoomed);
  EXPECT_EQ(s.requests, 1);  // only the blocker was served
  EXPECT_EQ(s.accepted, 1 + kDoomed);
}

// Strict priority: work queued as kInteractive runs before kStandard and
// kBatch work that was already waiting — a full low-priority backlog never
// starves a more urgent class. Order is observed through batch_seq, the
// monotone id of the forward each request rode in.
TEST(Scheduling, HigherPriorityNeverStarvesBehindLowPriorityBacklog) {
  auto compiled = CompiledModel::compile(make_convnet());
  EngineOptions opts;
  opts.max_batch = 8;
  opts.queue_depth = 64;
  opts.flush_timeout = std::chrono::microseconds(0);
  Engine engine(compiled, opts);

  auto blocker = engine.submit(
      make_request(blocker_sample(2), Priority::kStandard));
  let_worker_pick_up_blocker();

  // Backlog first, urgent work last — the scheduler must invert arrival
  // order. Distinct shapes keep the classes in distinct batches, so
  // batch_seq ordering is decisive.
  std::vector<std::future<Response>> low, high;
  for (int i = 0; i < 6; ++i)
    low.push_back(engine.submit(make_request(
        random_sample(static_cast<std::uint64_t>(20 + i), {3, 8, 8}),
        Priority::kBatch)));
  for (int i = 0; i < 3; ++i)
    high.push_back(engine.submit(make_request(
        random_sample(static_cast<std::uint64_t>(40 + i), {3, 12, 12}),
        Priority::kInteractive)));

  std::int64_t max_high_seq = -1, min_low_seq = 1 << 30;
  for (auto& f : high) {
    Response r = f.get();
    ASSERT_EQ(r.status, Response::Status::kOk);
    max_high_seq = std::max(max_high_seq, r.stats.batch_seq);
  }
  for (auto& f : low) {
    Response r = f.get();
    ASSERT_EQ(r.status, Response::Status::kOk);
    min_low_seq = std::min(min_low_seq, r.stats.batch_seq);
  }
  EXPECT_NO_THROW(blocker.get());
  EXPECT_LT(max_high_seq, min_low_seq)
      << "interactive work was scheduled after the batch-class backlog";
}

// Within one priority class the queue is earliest-deadline-first, not
// FIFO: requests submitted in reverse deadline order are served in
// deadline order, and an undeadlined request runs FIFO behind every
// deadlined one. Distinct shapes keep each request in its own batch, so
// batch_seq ordering is decisive.
TEST(Scheduling, EarlierDeadlineServedFirstWithinClass) {
  auto compiled = CompiledModel::compile(make_convnet());
  EngineOptions opts;
  opts.max_batch = 8;
  opts.queue_depth = 64;
  opts.flush_timeout = std::chrono::microseconds(0);
  Engine engine(compiled, opts);

  auto blocker = engine.submit(
      make_request(blocker_sample(9), Priority::kStandard));
  let_worker_pick_up_blocker();

  // Most-relaxed first: an undeadlined request, then deadlines shrinking
  // from 3 minutes to 1. A FIFO queue would serve them in submit order;
  // EDF must exactly invert the deadlined ones and park the undeadlined
  // request behind them all.
  auto no_deadline = engine.submit(make_request(
      random_sample(120, {3, 6, 6}), Priority::kStandard));
  auto relaxed = engine.submit(make_request(
      random_sample(121, {3, 8, 8}), Priority::kStandard,
      std::chrono::minutes(3)));
  auto middle = engine.submit(make_request(
      random_sample(122, {3, 10, 10}), Priority::kStandard,
      std::chrono::minutes(2)));
  auto urgent = engine.submit(make_request(
      random_sample(123, {3, 12, 12}), Priority::kStandard,
      std::chrono::minutes(1)));

  const auto seq = [](std::future<Response>& f) {
    Response r = f.get();
    EXPECT_EQ(r.status, Response::Status::kOk);
    return r.stats.batch_seq;
  };
  const std::int64_t urgent_seq = seq(urgent);
  const std::int64_t middle_seq = seq(middle);
  const std::int64_t relaxed_seq = seq(relaxed);
  const std::int64_t fifo_seq = seq(no_deadline);
  EXPECT_NO_THROW(blocker.get());

  EXPECT_LT(urgent_seq, middle_seq);
  EXPECT_LT(middle_seq, relaxed_seq);
  EXPECT_LT(relaxed_seq, fifo_seq)
      << "undeadlined request overtook deadlined work in its class";
}

// At a full queue, a more urgent arrival displaces the youngest request of
// the least urgent queued class (Status::kShed) instead of blocking or
// being rejected behind it.
TEST(Scheduling, UrgentArrivalDisplacesYoungestLowPriorityAtFullQueue) {
  auto compiled = CompiledModel::compile(make_convnet());
  EngineOptions opts;
  opts.max_batch = 8;
  opts.queue_depth = 4;
  opts.flush_timeout = std::chrono::microseconds(0);
  opts.overflow = EngineOptions::Overflow::kReject;
  Engine engine(compiled, opts);

  auto blocker = engine.submit(
      make_request(blocker_sample(3), Priority::kStandard));
  let_worker_pick_up_blocker();

  std::vector<std::future<Response>> low;
  for (int i = 0; i < 4; ++i)  // fills queue_depth exactly
    low.push_back(engine.submit(make_request(
        random_sample(static_cast<std::uint64_t>(50 + i), {3, 8, 8}),
        Priority::kBatch)));
  std::vector<std::future<Response>> high;
  for (int i = 0; i < 2; ++i)
    high.push_back(engine.submit(make_request(
        random_sample(static_cast<std::uint64_t>(60 + i), {3, 8, 8}),
        Priority::kInteractive)));

  // Youngest-first victim selection: the last two kBatch submits are shed.
  EXPECT_EQ(low[3].get().status, Response::Status::kShed);
  EXPECT_EQ(low[2].get().status, Response::Status::kShed);
  EXPECT_EQ(low[0].get().status, Response::Status::kOk);
  EXPECT_EQ(low[1].get().status, Response::Status::kOk);
  for (auto& f : high) EXPECT_EQ(f.get().status, Response::Status::kOk);
  EXPECT_NO_THROW(blocker.get());

  const EngineStats s = engine.stats();
  EXPECT_EQ(s.shed, 2);
  EXPECT_EQ(s.rejected, 0);
  EXPECT_EQ(s.requests, 1 + 2 + 2);  // blocker + surviving low + high
}

// The admission watermark band refuses a class early — reserving the
// queue headroom above its watermark for more urgent classes — while
// classes at watermark 1.0 keep admitting until the queue is full.
TEST(Scheduling, WatermarkBandRejectsLowPriorityEarly) {
  auto compiled = CompiledModel::compile(make_convnet());
  EngineOptions opts;
  opts.max_batch = 8;
  opts.queue_depth = 8;
  opts.flush_timeout = std::chrono::microseconds(0);
  opts.overflow = EngineOptions::Overflow::kReject;
  opts.admission_watermark[static_cast<int>(Priority::kBatch)] = 0.5;
  Engine engine(compiled, opts);

  auto blocker = engine.submit(
      make_request(blocker_sample(4), Priority::kStandard));
  let_worker_pick_up_blocker();

  // Watermark floor: 0.5 * 8 = 4 queued. The first four kBatch submits
  // land below it; the next two meet it and are refused with kRejected
  // even though four absolute slots remain.
  std::vector<std::future<Response>> low;
  for (int i = 0; i < 6; ++i)
    low.push_back(engine.submit(make_request(
        random_sample(static_cast<std::uint64_t>(70 + i), {3, 8, 8}),
        Priority::kBatch)));
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(low[static_cast<std::size_t>(i)].get().status,
              Response::Status::kOk)
        << "request " << i;
  for (int i = 4; i < 6; ++i) {
    Response r = low[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(r.status, Response::Status::kRejected) << "request " << i;
    EXPECT_EQ(r.stats.queue_time.count(), 0);  // never queued
  }

  // The reserved headroom is still there for the default-watermark class.
  std::vector<std::future<Response>> mid;
  for (int i = 0; i < 2; ++i)
    mid.push_back(engine.submit(make_request(
        random_sample(static_cast<std::uint64_t>(80 + i), {3, 8, 8}),
        Priority::kStandard)));
  for (auto& f : mid) EXPECT_EQ(f.get().status, Response::Status::kOk);
  EXPECT_NO_THROW(blocker.get());
  EXPECT_EQ(engine.stats().rejected, 2);
}

// Deadline admission control: once the engine has a run-time estimate, a
// deadline it cannot plausibly meet is refused at submit (kInfeasible)
// instead of being accepted and shed later; a deadline that has already
// passed is refused even before any estimate exists.
TEST(Scheduling, InfeasibleDeadlineRefusedAtAdmission) {
  auto compiled = CompiledModel::compile(make_convnet());
  EngineOptions opts;
  opts.flush_timeout = std::chrono::microseconds(0);
  Engine engine(compiled, opts);

  // Already-expired deadline, no EMA yet: still refused.
  {
    Response r = engine
                     .submit(make_request(random_sample(1, {3, 8, 8}),
                                          Priority::kInteractive,
                                          std::chrono::microseconds(-1)))
                     .get();
    // A negative duration is "no deadline" per Request::deadline (> 0),
    // so this one is served — pin that reading down.
    EXPECT_EQ(r.status, Response::Status::kOk);
  }

  // Seed the EMA with a forward that takes tens of milliseconds.
  EXPECT_EQ(engine.submit(make_request(blocker_sample(5), Priority::kStandard))
                .get()
                .status,
            Response::Status::kOk);

  // 1 ms deadline against a multi-ms EMA: infeasible at admission.
  Response infeasible =
      engine
          .submit(make_request(blocker_sample(6), Priority::kStandard,
                               std::chrono::milliseconds(1)))
          .get();
  EXPECT_EQ(infeasible.status, Response::Status::kInfeasible);
  EXPECT_EQ(infeasible.stats.queue_time.count(), 0);

  // A generous deadline sails through the same estimate.
  Response served =
      engine
          .submit(make_request(random_sample(2, {3, 8, 8}),
                               Priority::kStandard, std::chrono::minutes(1)))
          .get();
  EXPECT_EQ(served.status, Response::Status::kOk);

  const EngineStats s = engine.stats();
  EXPECT_EQ(s.infeasible, 1);
  EXPECT_EQ(s.requests, 3);
}

// The small-fix satellite: shutdown(Drain::kCancel) gives queued-but-
// unserved work an explicit terminal status (kCancelled) instead of
// leaving it indistinguishable from served success, while a batch already
// in flight still completes.
TEST(Scheduling, CancelDrainGivesQueuedWorkExplicitStatus) {
  auto compiled = CompiledModel::compile(make_convnet());
  EngineOptions opts;
  opts.max_batch = 1;  // nothing coalesces with the in-flight blocker
  opts.flush_timeout = std::chrono::microseconds(0);
  Engine engine(compiled, opts);

  auto blocker = engine.submit(
      make_request(blocker_sample(7), Priority::kStandard));
  let_worker_pick_up_blocker();

  constexpr int kQueued = 5;
  std::vector<std::future<Response>> queued;
  for (int i = 0; i < kQueued; ++i)
    queued.push_back(engine.submit(make_request(
        random_sample(static_cast<std::uint64_t>(90 + i), {3, 8, 8}),
        Priority::kStandard)));

  engine.shutdown(Engine::Drain::kCancel);

  EXPECT_EQ(blocker.get().status, Response::Status::kOk);  // was in flight
  for (auto& f : queued) {
    Response r = f.get();  // must not hang and must not throw
    EXPECT_EQ(r.status, Response::Status::kCancelled);
    EXPECT_TRUE(r.output.empty());
    EXPECT_EQ(r.stats.batch_seq, -1);
  }
  EXPECT_THROW(engine.submit({random_sample(99, {3, 8, 8})}),
               std::runtime_error);

  const EngineStats s = engine.stats();
  EXPECT_EQ(s.cancelled, kQueued);
  EXPECT_EQ(s.requests, 1);
  EXPECT_EQ(s.accepted, 1 + kQueued);
}

// The stats ledger balances: every submit attempt lands in exactly one of
// accepted / rejected / infeasible, and after a drain every accepted
// request lands in exactly one of served / shed / expired / cancelled.
TEST(Scheduling, StatsLedgerReconcilesAfterDrain) {
  auto compiled = CompiledModel::compile(make_convnet());
  EngineOptions opts;
  opts.max_batch = 4;
  opts.queue_depth = 4;
  opts.flush_timeout = std::chrono::microseconds(0);
  opts.overflow = EngineOptions::Overflow::kReject;
  opts.admission_watermark[static_cast<int>(Priority::kBatch)] = 0.75;
  Engine engine(compiled, opts);

  std::int64_t attempts = 0;
  auto track = [&](Request r) {
    ++attempts;
    return engine.submit(std::move(r));
  };

  std::vector<std::future<Response>> futures;
  futures.push_back(track(make_request(blocker_sample(8), Priority::kStandard)));
  let_worker_pick_up_blocker();
  // A mix that exercises every outcome: watermark rejections (kBatch past
  // 0.75*4 = 3 queued), displacement (interactive into the full queue),
  // expiry (short deadlines parked behind the blocker), and plain serves.
  for (int i = 0; i < 3; ++i)
    futures.push_back(track(make_request(
        random_sample(static_cast<std::uint64_t>(100 + i), {3, 8, 8}),
        Priority::kBatch)));
  futures.push_back(track(make_request(random_sample(103, {3, 8, 8}),
                                       Priority::kBatch)));  // watermarked
  futures.push_back(track(make_request(random_sample(104, {3, 8, 8}),
                                       Priority::kStandard,
                                       std::chrono::milliseconds(1))));
  for (int i = 0; i < 2; ++i)
    futures.push_back(track(make_request(
        random_sample(static_cast<std::uint64_t>(110 + i), {3, 8, 8}),
        Priority::kInteractive)));

  for (auto& f : futures) EXPECT_NO_THROW(f.get());  // statuses, not throws
  engine.shutdown();

  const EngineStats s = engine.stats();
  EXPECT_EQ(attempts, s.accepted + s.rejected + s.infeasible);
  EXPECT_EQ(s.accepted, s.requests + s.shed + s.expired + s.cancelled);
  EXPECT_GT(s.rejected + s.shed + s.expired, 0)
      << "scenario failed to exercise any shedding path";
}

/// Records every call of the completions it hands out, one slot per
/// submit. Each completion first calls engine.stats(): the engine mutex is
/// not recursive, so a completion invoked under it deadlocks instead of
/// passing.
class CompletionLog {
 public:
  struct Call {
    int count = 0;
    Response::Status status = Response::Status::kOk;
    std::exception_ptr error;
    std::thread::id thread;
  };

  /// Submits `request` to `engine` with a completion logged in a new slot;
  /// returns the slot.
  std::size_t submit(Engine& engine, Request request) {
    std::size_t slot = 0;
    {
      std::lock_guard<std::mutex> lk(mu_);
      slot = calls_.size();
      calls_.emplace_back();
    }
    engine.submit(std::move(request),
                  [this, &engine, slot](Response r, std::exception_ptr err) {
                    (void)engine.stats();
                    std::lock_guard<std::mutex> lk(mu_);
                    Call& c = calls_[slot];
                    ++c.count;
                    c.status = r.status;
                    c.error = std::move(err);
                    c.thread = std::this_thread::get_id();
                    cv_.notify_all();
                  });
    return slot;
  }

  /// The slot's record once its completion has run at least once.
  Call wait(std::size_t slot) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return calls_[slot].count > 0; });
    return calls_[slot];
  }

  /// Every slot's record as it stands now.
  std::vector<Call> calls() {
    std::lock_guard<std::mutex> lk(mu_);
    return calls_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Call> calls_;
};

// submit(Request, Completion) calls the completion exactly once for every
// outcome: served, refused at admission (watermark band, full queue,
// infeasible deadline), expired, shed, cancelled, and a forward that
// throws. Refusals complete on the submitting thread before submit
// returns, and a displaced request on the thread of the submit that
// displaced it; the rest complete on the worker. No completion runs under
// the engine lock (see CompletionLog).
TEST(Scheduling, CompletionRunsOnceOutsideTheLockForEveryOutcome) {
  using S = Response::Status;
  auto compiled = CompiledModel::compile(make_convnet());
  const auto small = [](std::uint64_t seed) {
    return random_sample(seed, {3, 8, 8});
  };
  const std::thread::id here = std::this_thread::get_id();
  CompletionLog log;
  std::vector<S> want;  // expected status per slot

  // Queue-side outcomes, behind a busy worker. The infeasibility check is
  // off so the short deadline is accepted and then expires in the queue.
  EngineOptions opts;
  opts.max_batch = 1;
  opts.queue_depth = 4;
  opts.flush_timeout = std::chrono::microseconds(0);
  opts.overflow = EngineOptions::Overflow::kReject;
  opts.reject_infeasible = false;
  opts.admission_watermark[static_cast<int>(Priority::kBatch)] = 0.5;
  {
    Engine engine(compiled, opts);
    log.submit(engine, make_request(blocker_sample(11), Priority::kStandard));
    want.push_back(S::kOk);
    let_worker_pick_up_blocker();
    log.submit(engine, make_request(small(1), Priority::kStandard,
                                    std::chrono::milliseconds(1)));
    want.push_back(S::kExpired);
    log.submit(engine, make_request(small(2), Priority::kBatch));
    want.push_back(S::kShed);  // displaced by the second kInteractive below
    // Watermark floor 0.5 * 4 = 2 queued: the next kBatch is refused.
    const std::size_t band =
        log.submit(engine, make_request(small(3), Priority::kBatch));
    want.push_back(S::kRejected);
    EXPECT_EQ(log.calls()[band].count, 1) << "refusal completes in submit";
    log.submit(engine, make_request(small(4), Priority::kStandard));
    want.push_back(S::kOk);
    log.submit(engine, make_request(small(5), Priority::kInteractive));
    want.push_back(S::kOk);
    log.submit(engine, make_request(small(6), Priority::kInteractive));
    want.push_back(S::kOk);
    // Full queue, and no class less urgent than kStandard left to displace.
    const std::size_t full =
        log.submit(engine, make_request(small(7), Priority::kStandard));
    want.push_back(S::kRejected);
    EXPECT_EQ(log.calls()[full].count, 1) << "refusal completes in submit";
    EXPECT_EQ(engine.stats().rejected, 2);
  }

  // Admission against a run-time estimate, a throwing forward, and a
  // cancelling shutdown.
  opts = EngineOptions{};
  opts.max_batch = 1;
  opts.flush_timeout = std::chrono::microseconds(0);
  Engine engine(compiled, opts);
  const std::size_t seeded =
      log.submit(engine, make_request(blocker_sample(12), Priority::kStandard));
  want.push_back(S::kOk);
  log.wait(seeded);  // the engine now has a tens-of-ms run-time estimate
  const std::size_t infeasible = log.submit(
      engine, make_request(small(8), Priority::kStandard,
                           std::chrono::milliseconds(1)));
  want.push_back(S::kInfeasible);
  EXPECT_EQ(log.calls()[infeasible].count, 1) << "refusal completes in submit";
  // conv1 expects 3 input channels, so this forward throws.
  const std::size_t bad = log.submit(
      engine, make_request(random_sample(9, {4, 8, 8}), Priority::kStandard));
  want.push_back(S::kOk);  // status of the empty Response beside the error
  EXPECT_NE(log.wait(bad).error, nullptr);
  log.submit(engine, make_request(blocker_sample(13), Priority::kStandard));
  want.push_back(S::kOk);
  let_worker_pick_up_blocker();
  log.submit(engine, make_request(small(10), Priority::kStandard));
  want.push_back(S::kCancelled);
  engine.shutdown(Engine::Drain::kCancel);

  const std::vector<CompletionLog::Call> calls = log.calls();
  ASSERT_EQ(calls.size(), want.size());
  for (std::size_t i = 0; i < calls.size(); ++i) {
    SCOPED_TRACE("slot " + std::to_string(i));
    EXPECT_EQ(calls[i].count, 1);
    EXPECT_EQ(calls[i].status, want[i]);
    EXPECT_EQ(calls[i].error != nullptr, i == bad);
    const bool in_submit = want[i] == S::kRejected ||
                           want[i] == S::kInfeasible || want[i] == S::kShed;
    EXPECT_EQ(calls[i].thread == here, in_submit);
  }
}

// Scheduling never changes the math: under the priority-aware worker,
// served outputs stay bit-identical to the serial forward of the same
// sample on the dense path, and bit-identical across 1/2/8 kernel
// threads — priorities and deadlines only reorder work.
TEST(Scheduling, BatchedParityBitwiseAcrossThreadsWithPriorities) {
  auto compiled = CompiledModel::compile(make_convnet());
  constexpr int kRequests = 24;
  constexpr Priority kCycle[] = {Priority::kInteractive, Priority::kStandard,
                                 Priority::kBatch};

  ThreadGuard guard;
  std::vector<Tensor> outputs_at_threads;
  for (const int threads : {1, 2, 8}) {
    kernels::set_num_threads(threads);
    EngineOptions opts;
    opts.max_batch = 8;
    opts.flush_timeout = std::chrono::microseconds(2000);
    Engine engine(compiled, opts);

    std::vector<std::future<Response>> futures;
    for (int i = 0; i < kRequests; ++i) {
      // Alternate classes; give every third request a generous deadline so
      // the deadline bookkeeping is in play without ever expiring.
      const auto deadline = (i % 3 == 0) ? std::chrono::microseconds(
                                               std::chrono::minutes(1))
                                         : std::chrono::microseconds(0);
      futures.push_back(engine.submit(make_request(
          random_sample(static_cast<std::uint64_t>(5000 + i), {3, 8, 8}),
          kCycle[i % 3], deadline)));
    }

    Tensor stacked({kRequests, 8});
    for (int i = 0; i < kRequests; ++i) {
      Response r = futures[static_cast<std::size_t>(i)].get();
      ASSERT_EQ(r.status, Response::Status::kOk) << "request " << i;
      const Tensor want = serial_reference(
          *compiled,
          random_sample(static_cast<std::uint64_t>(5000 + i), {3, 8, 8}));
      ASSERT_TRUE(r.output.same_shape(want));
      EXPECT_FLOAT_EQ(max_abs_diff(r.output, want), 0.0f)
          << "request " << i << " diverged from serial at " << threads
          << " threads in a batch of " << r.stats.batch_size;
      std::memcpy(stacked.data() + i * 8, r.output.data(), 8 * sizeof(float));
    }
    outputs_at_threads.push_back(std::move(stacked));
  }

  for (std::size_t t = 1; t < outputs_at_threads.size(); ++t)
    EXPECT_FLOAT_EQ(
        max_abs_diff(outputs_at_threads[0], outputs_at_threads[t]), 0.0f)
        << "scheduled serve output changed with the kernel thread count";
}

// Concurrent producers on different priority classes: everything accepted
// is served correctly (ample queue, no deadlines), exercising the
// per-class queues under real submit contention for TSan.
TEST(Scheduling, ConcurrentPrioritizedProducersAllServed) {
  auto compiled = CompiledModel::compile(make_convnet());
  EngineOptions opts;
  opts.max_batch = 8;
  opts.queue_depth = 128;
  opts.flush_timeout = std::chrono::microseconds(500);
  Engine engine(compiled, opts);

  constexpr int kPerClass = 12;
  std::vector<std::vector<std::future<Response>>> futures(3);
  std::vector<std::thread> producers;
  for (int c = 0; c < 3; ++c) {
    producers.emplace_back([&, c] {
      for (int i = 0; i < kPerClass; ++i)
        futures[static_cast<std::size_t>(c)].push_back(engine.submit(
            make_request(random_sample(
                             static_cast<std::uint64_t>(7000 + c * 100 + i),
                             {3, 8, 8}),
                         static_cast<Priority>(c))));
    });
  }
  for (auto& t : producers) t.join();

  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < kPerClass; ++i) {
      Response r = futures[static_cast<std::size_t>(c)]
                       [static_cast<std::size_t>(i)].get();
      ASSERT_EQ(r.status, Response::Status::kOk);
      const Tensor want = serial_reference(
          *compiled,
          random_sample(static_cast<std::uint64_t>(7000 + c * 100 + i),
                        {3, 8, 8}));
      EXPECT_FLOAT_EQ(max_abs_diff(r.output, want), 0.0f)
          << "class " << c << " request " << i;
    }
  }
  const EngineStats s = engine.stats();
  EXPECT_EQ(s.requests, 3 * kPerClass);
  EXPECT_EQ(s.accepted, 3 * kPerClass);
  EXPECT_EQ(s.shed + s.expired + s.rejected + s.infeasible, 0);
}

}  // namespace
}  // namespace crisp::serve
