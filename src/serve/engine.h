// Traffic-aware batched inference engine — the serving front end.
//
// The paper's deployment target is a packed, class-personalized model
// answering a stream of latency-sensitive requests on a shared device
// (CRISP §V, Fig. 9's latency story). Engine turns that stream into
// efficient batched execution *and* keeps it schedulable under load:
//   * submit(Request, Completion) enqueues one sample with a priority
//     class and an optional deadline, and calls the completion exactly
//     once with its outcome; submit(Request) wraps that in a
//     std::future<Response>. Any number of producer threads may submit
//     concurrently;
//   * a worker thread picks the earliest-deadline request of the most
//     urgent non-empty class (EDF within a class; requests without a
//     deadline order FIFO behind deadlined ones), then keeps coalescing
//     shape-compatible arrivals — from any class, most urgent and
//     earliest-deadline first — into the open batch slots for up to
//     flush_timeout, so the batch-parallel kernels see real batches and
//     late arrivals ride the batch that is already forming;
//   * admission control refuses work the engine should not accept: a
//     per-class queue-occupancy watermark (EngineOptions), and
//     reject-on-deadline-infeasible against a running estimate of
//     completion time. Refusals complete the request with an explicit
//     Response::Status instead of growing the queue;
//   * load shedding keeps overload from becoming silent latency blowup:
//     deadline-expired work is shed (kExpired) instead of served late, and
//     a more urgent arrival at a full queue displaces the youngest request
//     of the least urgent class (kShed) instead of waiting behind it;
//   * the queue is bounded (queue_depth): when it is full and no
//     displacement applies, submit either blocks for space or rejects,
//     per EngineOptions::overflow;
//   * every response carries a status, queue/run timings, and the batch it
//     rode in; stats() aggregates the outcome counters engine-wide, and
//     the counters reconcile: every accepted request ends exactly one of
//     served / shed / expired / cancelled.
//
// Determinism: scheduling never changes the math. Each served sample's
// output is computed by the same per-row kernels as a serial nn::predict
// of that sample — priorities, deadlines, and thread budgets only decide
// *whether and when* a request runs, never what it computes. The engine
// concurrency tests (tests/test_serve.cpp, tests/test_serve_sched.cpp)
// lock this in. docs/serving.md is the operator's guide to these knobs.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/compiled_model.h"

namespace crisp::serve {

/// Scheduling class of a request. Lower values are more urgent; the worker
/// always serves the most urgent non-empty class first (strict priority,
/// earliest-deadline-first within a class — undeadlined requests run FIFO
/// behind deadlined ones). Strict priority means a saturated stream of
/// urgent work can starve kBatch indefinitely — that is deliberate: under
/// overload the admission watermarks and displacement shedding, not the
/// scheduler, are the pressure valve (see docs/serving.md).
enum class Priority : int {
  kInteractive = 0,  ///< user-facing, latency-sensitive; served first
  kStandard = 1,     ///< the default class (Request's default)
  kBatch = 2,        ///< throughput work; first to be shed under load
};
/// Number of priority classes (size of per-class option arrays).
inline constexpr int kPriorityCount = 3;

struct EngineOptions {
  /// Most requests one batched forward may coalesce (>= 1). Larger batches
  /// amortize kernel dispatch and feed the batch-parallel kernels real
  /// work; the trade is tail latency for the first request in the batch.
  std::int64_t max_batch = 8;
  /// Bounded queue capacity (>= 1), summed across the priority classes;
  /// beyond it, displacement and then `overflow` decide. The worker
  /// flushes a partial batch as soon as the queue itself is full, so
  /// queue_depth < max_batch never deadlocks blocked producers.
  std::int64_t queue_depth = 128;
  /// How long the worker keeps the forming batch open after its lead
  /// request is picked, coalescing shape-compatible arrivals into the
  /// remaining slots. Zero flushes immediately (lowest latency, smallest
  /// batches).
  std::chrono::microseconds flush_timeout{200};
  /// Cap on kernels-pool threads the engine's forwards may occupy. Applied
  /// as a kernels::ScopedThreadBudget on the worker thread, so it is
  /// per-engine, not process-global: budgets are thread-local, the
  /// *tightest* enclosing cap wins when scopes nest, and each scope
  /// restores what it found on exit. 0 leaves the pool uncapped. Budgets
  /// never change numerics — chunk boundaries stay a pure function of the
  /// loop size — only how many workers participate. Size it roughly as
  /// cores / co-resident engines to avoid oversubscribing the shared pool.
  int thread_budget = 0;
  /// Full-queue policy once admission control and displacement have not
  /// resolved the submit.
  ///   kBlock:  submit() parks the producer until the worker frees space;
  ///            a shutdown() while parked wakes it and it throws
  ///            std::runtime_error (the engine waits for parked producers
  ///            to leave before tearing down, so destruction is safe).
  ///   kReject: the submit is refused with Response::Status::kRejected
  ///            and counted in EngineStats::rejected. Nothing is enqueued.
  /// Accepted requests are served under either policy — overflow only
  /// governs what happens at the admission edge. Open-loop producers
  /// (bench/loadgen.cpp) want kReject: kBlock turns them closed-loop.
  enum class Overflow { kBlock, kReject };
  Overflow overflow = Overflow::kBlock;
  /// Per-class admission watermark as a fraction of queue_depth, indexed
  /// by Priority. When admitting a request of class p would hold with the
  /// queue already at or beyond watermark[p] * queue_depth, the submit is
  /// refused (Status::kRejected) even though absolute capacity remains —
  /// the headroom above a class's watermark is reserved for more urgent
  /// classes. 1.0 (the default) disables the band for that class: it is
  /// then governed only by the full-queue `overflow` policy. Values are
  /// clamped to [0, 1]; the floor of watermark * queue_depth is compared
  /// against the current total queue length.
  std::array<double, kPriorityCount> admission_watermark{{1.0, 1.0, 1.0}};
  /// Reject a deadlined request at submit when its deadline cannot
  /// plausibly be met: the engine estimates completion as
  ///   ema_batch_run * (1 + queued_at_or_above_urgency / max_batch),
  /// an optimistic lower bound from the running average batch time (no
  /// estimate is made — and nothing rejected — until the first batch has
  /// completed). Refused submits complete with Status::kInfeasible and
  /// count in EngineStats::infeasible. A deadline that has *already*
  /// passed at submit is always refused, even with this off. Rejecting at
  /// admission is kinder than accepting work that will only be shed after
  /// consuming queue space — callers get the failure at submit time, while
  /// they can still retry elsewhere.
  bool reject_infeasible = true;
};

/// One unit of serving work for submit(). The sample is unbatched (e.g.
/// (C,H,W) or (features,)); the engine adds and strips the batch axis.
/// `submit({sample})` serves it at kStandard with no deadline.
struct Request {
  Tensor sample;
  /// Scheduling class; see Priority.
  Priority priority = Priority::kStandard;
  /// Completion deadline relative to the submit call; zero (the default)
  /// means none. A deadlined request is refused at admission when already
  /// infeasible (see EngineOptions::reject_infeasible) and shed with
  /// Status::kExpired if the deadline passes while it is still queued —
  /// it is never served late. A deadline does not abort a forward already
  /// in flight: expiry is checked when batches form.
  std::chrono::microseconds deadline{0};
};

/// Timings of one request, measured on the worker's clock.
struct RequestStats {
  /// submit() accepting the request -> its batch being formed (includes
  /// any flush_timeout spent waiting for stragglers). For terminal
  /// non-served outcomes this is the time from submit to the shed /
  /// expiry / cancellation decision (0 for admission refusals, which
  /// never queued).
  std::chrono::microseconds queue_time{0};
  /// Wall time of the batched forward the request rode in. Shared by every
  /// request of that batch — it is the batch's time, not a per-sample
  /// slice. 0 for non-served outcomes.
  std::chrono::microseconds run_time{0};
  /// Requests coalesced into that forward (1 when served alone; 0 for
  /// non-served outcomes).
  std::int64_t batch_size = 0;
  /// Monotone id of the batched forward this request rode in (the engine's
  /// n-th forward, counting from 0) — -1 for non-served outcomes. Two
  /// served requests compare scheduling order by comparing batch_seq.
  std::int64_t batch_seq = -1;
};

struct Response {
  /// Terminal outcome of the request. Only kOk and kDegraded carry an
  /// output; every other status is the scheduler saying *why* it refused
  /// or dropped the work instead of hiding the drop inside unbounded
  /// latency.
  enum class Status {
    kOk = 0,      ///< served; `output` is valid
    kRejected,    ///< refused at admission: full queue under
                  ///< Overflow::kReject, or the class's watermark band
    kInfeasible,  ///< refused at admission: the deadline had already
                  ///< passed, or could not be met per the completion
                  ///< estimate (EngineOptions::reject_infeasible)
    kExpired,     ///< accepted, but the deadline passed while queued —
                  ///< shed at batch formation instead of served late
    kShed,        ///< accepted, then displaced from a full queue by a
                  ///< more urgent arrival (youngest-of-least-urgent-class
                  ///< victim selection)
    kCancelled,   ///< accepted, then drained unserved by
                  ///< shutdown(Drain::kCancel)
    kDegraded,    ///< served, but from the shared base model instead of
                  ///< the tenant's personalization — tenant::Router's
                  ///< quarantine path for a delta that failed to load or
                  ///< compile; `output` is valid. The engine itself never
                  ///< emits this; the router's fallback completion
                  ///< rewrites kOk.
  };
  Status status = Status::kOk;
  /// This sample's output with the batch axis stripped: submitting (C,H,W)
  /// yields the same shape a B=1 forward would, minus the leading 1.
  /// Empty unless status == kOk or kDegraded.
  Tensor output;
  RequestStats stats;
};

/// Aggregate counters since construction (see Engine::stats()). Counters
/// are updated before a request's completion runs, so a caller that
/// observed its response already sees itself counted. The books balance:
///   submit attempts = accepted + rejected + infeasible
///   accepted        = requests + shed + expired + cancelled + still-queued
/// (tests/test_serve_sched.cpp reconciles them after a drain).
struct EngineStats {
  /// Requests admitted into the queue (every submit that was not refused
  /// at the admission edge).
  std::int64_t accepted = 0;
  /// Served requests — fulfilled *or* errored (a bad-shape request whose
  /// completion gets the exception still counts; it queued and ran).
  /// Non-served terminal outcomes (shed/expired/cancelled) are NOT
  /// included.
  std::int64_t requests = 0;
  std::int64_t batches = 0;    ///< batched forwards run
  /// Submits refused at the admission edge for capacity: full queue under
  /// Overflow::kReject or a class watermark band.
  std::int64_t rejected = 0;
  /// Submits refused at the admission edge because the deadline had
  /// already passed or was estimated unmeetable (Status::kInfeasible).
  std::int64_t infeasible = 0;
  /// Accepted requests whose deadline passed in the queue (Status::kExpired).
  std::int64_t expired = 0;
  /// Accepted requests displaced from a full queue by a more urgent
  /// arrival (Status::kShed).
  std::int64_t shed = 0;
  /// Accepted requests drained unserved by shutdown(Drain::kCancel).
  std::int64_t cancelled = 0;
  std::int64_t max_batch = 0;  ///< largest batch coalesced so far
  /// Completed swap_model() calls (hot mask/model swaps on a live engine).
  std::int64_t swaps = 0;
  /// Sum of per-request queue_time in microseconds, served requests only
  /// (shed/expired/cancelled queue time would bias the serving picture).
  double total_queue_us = 0.0;
  /// Sum over served requests of the run_time of the batch each rode in (a
  /// batch of n contributes n * its wall time), so mean run time per
  /// request is total_run_us / requests.
  double total_run_us = 0.0;

  /// Mean requests per forward — the batching win the engine exists for.
  double occupancy() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(requests) /
                              static_cast<double>(batches);
  }
  double mean_queue_us() const {
    return requests == 0 ? 0.0 : total_queue_us / static_cast<double>(requests);
  }
};

class Engine {
 public:
  explicit Engine(std::shared_ptr<const CompiledModel> model,
                  EngineOptions options = {});
  ~Engine();  ///< shutdown(Drain::kServe), then joins the worker

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Receives the outcome of one request: its Response (any status) and a
  /// null exception_ptr, or an empty Response and the exception its
  /// forward threw (e.g. a sample the model's shapes reject).
  using Completion = std::function<void(Response, std::exception_ptr)>;

  /// Enqueues one prioritized, optionally deadlined request and calls
  /// `done` exactly once with its outcome, unless submit itself throws.
  /// Where it runs:
  ///   * admission refusals (watermark band, full queue under kReject,
  ///     infeasible deadline): on the calling thread, before submit
  ///     returns;
  ///   * a request displaced from a full queue (kShed): on the thread of
  ///     the submit that displaced it;
  ///   * every other outcome: on the worker.
  /// It never runs under the engine lock, so it may read stats(). It must
  /// not throw (on the worker, an escaping exception ends the process),
  /// and should be quick: the worker completes a batch's requests one
  /// after another. The only throws are misuse (empty sample,
  /// null completion, submit after shutdown — also when shutdown wakes a
  /// producer parked under Overflow::kBlock, which a full queue with no
  /// displacement victim still does). Thread-safe.
  void submit(Request request, Completion done);

  /// submit(Request, Completion) with a completion that fulfils the
  /// returned future: the response, or the forward's exception from get().
  std::future<Response> submit(Request request);

  /// What shutdown() does with requests still queued when it is called.
  enum class Drain {
    kServe,   ///< run every queued request to completion (Status::kOk)
    kCancel,  ///< complete queued requests with Status::kCancelled,
              ///< unserved — bounded-time teardown for operators who
              ///< would rather drop work than wait out a deep queue
  };

  /// Stops accepting submissions, wakes producers parked in a kBlock
  /// submit (they throw), waits for them to leave, disposes of everything
  /// already queued per `drain` (a batch already executing always
  /// completes), and joins the worker. Idempotent — but only the first
  /// call's drain policy applies. The destructor calls
  /// shutdown(Drain::kServe), so destroying an engine under concurrent
  /// blocked submitters is safe.
  void shutdown(Drain drain = Drain::kServe);

  /// Atomically replaces the served model on a live engine — the hot mask
  /// swap behind class-set switching and unlearning rollout (docs/criteria.md).
  /// Every request batched after the swap runs on the new model; a batch
  /// already in flight completes on the old one (its shared_ptr keeps the
  /// artifact alive), so no in-flight request ever fails or sees a torn
  /// model. Queued-but-unbatched requests serve on the new model: the swap
  /// point sits between batches, never inside one
  /// (tests/test_serve_swap.cpp drives this under mixed-priority load and
  /// the TSan job). The new model must accept the same input shapes.
  /// Thread-safe; throws only on a null model.
  void swap_model(std::shared_ptr<const CompiledModel> model);

  EngineStats stats() const;
  const EngineOptions& options() const { return options_; }
  /// Snapshot of the currently served model (the swap target may replace
  /// it at any time; the returned pointer stays valid regardless).
  std::shared_ptr<const CompiledModel> model() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    Tensor sample;
    Priority priority = Priority::kStandard;
    Completion done;
    Clock::time_point enqueued;
    /// Absolute deadline; time_point::max() when the request has none.
    Clock::time_point deadline = Clock::time_point::max();
  };

  void worker_main();
  /// Runs `batch` (uniform shape, already removed from the queues) as one
  /// forward and completes every request (response or exception).
  void run_batch(std::vector<Pending>& batch);
  /// Completes a non-served request with `status` (no output). Called
  /// outside mu_ — the request is already detached from the queues.
  static void fulfill_terminal(Pending& p, Response::Status status,
                               Clock::time_point now);

  /// The following helpers require mu_ to be held.
  /// Moves every queued request whose deadline has passed into `out`.
  void take_expired_locked(Clock::time_point now, std::vector<Pending>& out);
  /// Moves shape-matching requests into `batch` (most urgent class first,
  /// earliest deadline first within a class, FIFO among undeadlined) until
  /// it holds `target` requests.
  void collect_matching_locked(const Shape& shape, std::int64_t target,
                               std::vector<Pending>& batch);
  /// Optimistic completion-time estimate (µs) for a request of class `p`:
  /// 0 until the first batch has completed.
  double estimated_completion_us_locked(Priority p) const;
  std::int64_t queued_total_locked() const;

  /// Currently served model. Guarded by mu_: run_batch snapshots it under
  /// the lock before each forward, swap_model replaces it under the lock.
  std::shared_ptr<const CompiledModel> model_;
  EngineOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_submitted_;  ///< queue gained work / stopping
  std::condition_variable cv_space_;      ///< queue freed capacity
  std::condition_variable cv_submit_drained_;  ///< blocked submitters left
  /// One queue per priority class; the worker drains the lowest non-empty
  /// index first, earliest deadline first within it (arrival order is
  /// kept, selection scans for the minimum deadline).
  std::array<std::deque<Pending>, kPriorityCount> queues_;
  bool stopping_ = false;
  bool cancel_pending_ = false;  ///< shutdown(kCancel): drop, don't serve
  std::int64_t blocked_submitters_ = 0;  ///< producers parked in submit()
  EngineStats stats_;
  /// Exponential moving average of batched-forward wall time (µs); feeds
  /// the deadline-infeasibility estimate. 0 until the first batch.
  double ema_run_us_ = 0.0;

  std::thread worker_;  ///< started last, so it sees a fully-built engine
};

}  // namespace crisp::serve
