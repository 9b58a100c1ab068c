#include "serve/engine.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "kernels/parallel_for.h"

namespace crisp::serve {

namespace {

using Clock = std::chrono::steady_clock;

std::chrono::microseconds elapsed_us(Clock::time_point from,
                                     Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::microseconds>(to - from);
}

/// Smoothing factor of the batch-run-time EMA. Light smoothing: admission
/// control wants to track load shifts within a few batches, and the
/// estimate is advisory (a lower bound), not a latency promise.
constexpr double kEmaAlpha = 0.2;

}  // namespace

Engine::Engine(std::shared_ptr<const CompiledModel> model,
               EngineOptions options)
    : model_(std::move(model)), options_(options) {
  CRISP_CHECK(model_ != nullptr, "serve::Engine: null compiled model");
  CRISP_CHECK(options_.max_batch >= 1,
              "serve::Engine: max_batch must be >= 1, got "
                  << options_.max_batch);
  CRISP_CHECK(options_.queue_depth >= 1,
              "serve::Engine: queue_depth must be >= 1, got "
                  << options_.queue_depth);
  for (double& w : options_.admission_watermark)
    w = std::min(1.0, std::max(0.0, w));
  worker_ = std::thread([this] { worker_main(); });
}

Engine::~Engine() { shutdown(Drain::kServe); }

std::future<Response> Engine::submit(Request request) {
  // std::function needs a copyable callable, so the promise is shared.
  auto promise = std::make_shared<std::promise<Response>>();
  std::future<Response> fut = promise->get_future();
  submit(std::move(request), [promise](Response r, std::exception_ptr err) {
    if (err)
      promise->set_exception(std::move(err));
    else
      promise->set_value(std::move(r));
  });
  return fut;
}

void Engine::submit(Request request, Completion done) {
  CRISP_CHECK(!request.sample.empty(), "serve::Engine::submit: empty sample");
  CRISP_CHECK(done != nullptr, "serve::Engine::submit: null completion");
  const int pr = static_cast<int>(request.priority);
  CRISP_CHECK(pr >= 0 && pr < kPriorityCount,
              "serve::Engine::submit: invalid priority " << pr);

  Pending p;
  p.sample = std::move(request.sample);
  p.priority = request.priority;
  p.done = std::move(done);
  p.enqueued = Clock::now();
  if (request.deadline.count() > 0) p.deadline = p.enqueued + request.deadline;

  // A displaced victim is completed outside the lock; the decision to
  // displace is made under it.
  Pending victim;
  bool have_victim = false;

  {
    std::unique_lock<std::mutex> lk(mu_);
    if (stopping_)
      throw std::runtime_error("serve::Engine: submit after shutdown");

    // Admission: deadline feasibility. An already-passed deadline is
    // always refused; beyond that the estimate only exists once a batch
    // has completed (ema > 0).
    if (p.deadline != Clock::time_point::max()) {
      const Clock::time_point now = p.enqueued;
      bool refuse = p.deadline <= now;
      if (!refuse && options_.reject_infeasible) {
        const double est_us = estimated_completion_us_locked(p.priority);
        refuse = est_us > 0.0 &&
                 p.deadline < now + std::chrono::microseconds(
                                        static_cast<std::int64_t>(est_us));
      }
      if (refuse) {
        ++stats_.infeasible;
        lk.unlock();
        fulfill_terminal(p, Response::Status::kInfeasible, Clock::now());
        return;
      }
    }

    // Admission: per-class watermark band. A watermark of 1.0 (wm ==
    // queue_depth) defers entirely to the full-queue policy below.
    const std::int64_t wm = static_cast<std::int64_t>(
        options_.admission_watermark[static_cast<std::size_t>(pr)] *
        static_cast<double>(options_.queue_depth));
    if (wm < options_.queue_depth && queued_total_locked() >= wm) {
      ++stats_.rejected;
      lk.unlock();
      fulfill_terminal(p, Response::Status::kRejected, Clock::now());
      return;
    }

    if (queued_total_locked() >= options_.queue_depth && !stopping_) {
      // Displacement: a more urgent arrival sheds the youngest request of
      // the least urgent queued class rather than waiting behind it.
      int victim_class = -1;
      for (int c = kPriorityCount - 1; c > pr; --c) {
        if (!queues_[static_cast<std::size_t>(c)].empty()) {
          victim_class = c;
          break;
        }
      }
      if (victim_class >= 0) {
        auto& q = queues_[static_cast<std::size_t>(victim_class)];
        victim = std::move(q.back());
        q.pop_back();
        have_victim = true;
        ++stats_.shed;
      } else if (options_.overflow == EngineOptions::Overflow::kReject) {
        ++stats_.rejected;
        lk.unlock();
        fulfill_terminal(p, Response::Status::kRejected, Clock::now());
        return;
      } else {
        // Parked submitters are counted so shutdown() can wait for them to
        // leave before the engine's mutex/condvars are torn down.
        ++blocked_submitters_;
        cv_space_.wait(lk, [&] {
          return stopping_ || queued_total_locked() < options_.queue_depth;
        });
        if (--blocked_submitters_ == 0 && stopping_)
          cv_submit_drained_.notify_all();
      }
    }
    if (stopping_)
      throw std::runtime_error("serve::Engine: submit after shutdown");

    ++stats_.accepted;
    queues_[static_cast<std::size_t>(pr)].push_back(std::move(p));
  }
  cv_submitted_.notify_one();
  if (have_victim)
    fulfill_terminal(victim, Response::Status::kShed, Clock::now());
}

void Engine::shutdown(Drain drain) {
  {
    std::unique_lock<std::mutex> lk(mu_);
    stopping_ = true;
    if (drain == Drain::kCancel) cancel_pending_ = true;
    cv_submitted_.notify_all();
    cv_space_.notify_all();
    // Producers parked in submit() under kBlock hold references to this
    // engine's mutex and condvars; let them wake and leave before the
    // worker join (and, for the destructor, before members are freed).
    cv_submit_drained_.wait(lk, [&] { return blocked_submitters_ == 0; });
  }
  if (worker_.joinable()) worker_.join();
}

EngineStats Engine::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void Engine::swap_model(std::shared_ptr<const CompiledModel> model) {
  CRISP_CHECK(model != nullptr, "serve::Engine: null model in swap_model");
  std::shared_ptr<const CompiledModel> old;
  {
    std::lock_guard<std::mutex> lk(mu_);
    old = std::move(model_);  // release the old artifact outside the lock
    model_ = std::move(model);
    stats_.swaps += 1;
  }
}

std::shared_ptr<const CompiledModel> Engine::model() const {
  std::lock_guard<std::mutex> lk(mu_);
  return model_;
}

void Engine::fulfill_terminal(Pending& p, Response::Status status,
                              Clock::time_point now) {
  Response r;
  r.status = status;
  // Admission refusals never queued; everything else reports how long the
  // request sat before the scheduler dropped it.
  if (status != Response::Status::kRejected &&
      status != Response::Status::kInfeasible)
    r.stats.queue_time = elapsed_us(p.enqueued, now);
  p.done(std::move(r), nullptr);
}

void Engine::take_expired_locked(Clock::time_point now,
                                 std::vector<Pending>& out) {
  for (auto& q : queues_) {
    for (auto it = q.begin(); it != q.end();) {
      if (it->deadline <= now) {
        out.push_back(std::move(*it));
        it = q.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void Engine::collect_matching_locked(const Shape& shape, std::int64_t target,
                                     std::vector<Pending>& batch) {
  // EDF within each class: among shape-matching requests, the earliest
  // absolute deadline fills the next slot. Undeadlined requests carry
  // time_point::max(), so they order FIFO behind every deadlined one (the
  // strict < keeps the scan stable). Linear scans are fine here — the
  // queue is bounded by queue_depth.
  for (auto& q : queues_) {
    while (static_cast<std::int64_t>(batch.size()) < target) {
      auto best = q.end();
      for (auto it = q.begin(); it != q.end(); ++it) {
        if (it->sample.shape() != shape) continue;
        if (best == q.end() || it->deadline < best->deadline) best = it;
      }
      if (best == q.end()) break;
      batch.push_back(std::move(*best));
      q.erase(best);
    }
    if (static_cast<std::int64_t>(batch.size()) >= target) return;
  }
}

double Engine::estimated_completion_us_locked(Priority p) const {
  if (ema_run_us_ == 0.0) return 0.0;
  // Work queued at or above this request's urgency runs first; it drains
  // in batches of up to max_batch, each costing ~one EMA batch time, and
  // the request's own batch costs one more. Optimistic on purpose: it
  // ignores shape fragmentation and flush waits, so it only refuses
  // deadlines that even a perfectly packed queue could not meet.
  std::int64_t ahead = 0;
  for (int c = 0; c <= static_cast<int>(p); ++c)
    ahead += static_cast<std::int64_t>(queues_[static_cast<std::size_t>(c)].size());
  const double batches_ahead =
      static_cast<double>(ahead) / static_cast<double>(options_.max_batch);
  return ema_run_us_ * (1.0 + batches_ahead);
}

std::int64_t Engine::queued_total_locked() const {
  std::int64_t total = 0;
  for (const auto& q : queues_) total += static_cast<std::int64_t>(q.size());
  return total;
}

void Engine::worker_main() {
  // The engine's pool pinning: every parallel_for issued by forwards on
  // this thread sees at most thread_budget threads.
  kernels::ScopedThreadBudget budget(options_.thread_budget);

  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_submitted_.wait(lk, [&] { return stopping_ || queued_total_locked() > 0; });
    if (queued_total_locked() == 0) return;  // stopping and fully drained

    if (stopping_ && cancel_pending_) {
      // shutdown(Drain::kCancel): everything still queued gets a terminal
      // kCancelled status instead of a forward.
      std::vector<Pending> dropped;
      for (auto& q : queues_) {
        for (auto& p : q) dropped.push_back(std::move(p));
        q.clear();
      }
      stats_.cancelled += static_cast<std::int64_t>(dropped.size());
      lk.unlock();
      const Clock::time_point now = Clock::now();
      for (auto& p : dropped)
        fulfill_terminal(p, Response::Status::kCancelled, now);
      return;
    }

    // Shed deadline-expired work before it can anchor or join a batch.
    std::vector<Pending> expired;
    take_expired_locked(Clock::now(), expired);
    if (!expired.empty()) {
      stats_.expired += static_cast<std::int64_t>(expired.size());
      lk.unlock();
      cv_space_.notify_all();
      const Clock::time_point now = Clock::now();
      for (auto& p : expired) fulfill_terminal(p, Response::Status::kExpired, now);
      expired.clear();
      lk.lock();
      if (queued_total_locked() == 0) continue;
    }

    // Lead request: earliest deadline in the most urgent non-empty class
    // (EDF within the class; undeadlined requests sort last and FIFO among
    // themselves via the strict <). Its shape defines the batch;
    // everything coalesced below stacks behind it.
    std::vector<Pending> batch;
    for (auto& q : queues_) {
      if (q.empty()) continue;
      auto lead = q.begin();
      for (auto it = std::next(q.begin()); it != q.end(); ++it)
        if (it->deadline < lead->deadline) lead = it;
      batch.push_back(std::move(*lead));
      q.erase(lead);
      break;
    }
    const Shape shape = batch.front().sample.shape();
    const std::int64_t target = options_.max_batch;

    // Continuous coalescing: keep folding shape-compatible arrivals (most
    // urgent first) into the open slots until the batch is full, the
    // flush window closes, the queue itself fills (blocked producers need
    // the flush), or shutdown begins.
    const Clock::time_point flush_at = Clock::now() + options_.flush_timeout;
    for (;;) {
      collect_matching_locked(shape, target, batch);
      // Popping the lead / coalescing freed queue space; wake producers
      // parked in a kBlock submit before settling into the flush wait.
      cv_space_.notify_all();
      if (stopping_ || static_cast<std::int64_t>(batch.size()) >= target ||
          queued_total_locked() >= options_.queue_depth)
        break;
      if (cv_submitted_.wait_until(lk, flush_at) == std::cv_status::timeout) {
        collect_matching_locked(shape, target, batch);
        break;
      }
    }

    // A batch member whose deadline lapsed during the flush wait is shed,
    // not served late.
    const Clock::time_point formed = Clock::now();
    std::vector<Pending> late;
    for (auto it = batch.begin(); it != batch.end();) {
      if (it->deadline <= formed) {
        late.push_back(std::move(*it));
        it = batch.erase(it);
      } else {
        ++it;
      }
    }
    stats_.expired += static_cast<std::int64_t>(late.size());

    lk.unlock();
    cv_space_.notify_all();
    for (auto& p : late) fulfill_terminal(p, Response::Status::kExpired, formed);
    if (!batch.empty()) run_batch(batch);
    lk.lock();
  }
}

void Engine::run_batch(std::vector<Pending>& batch) {
  const std::int64_t n = static_cast<std::int64_t>(batch.size());
  const Clock::time_point formed = Clock::now();
  // Snapshot the served model under the lock: a concurrent swap_model may
  // replace model_ at any moment, and this batch must run start-to-finish
  // on ONE coherent artifact (the shared_ptr keeps it alive even if the
  // swap drops the last other reference mid-forward).
  std::shared_ptr<const CompiledModel> model;
  {
    std::lock_guard<std::mutex> lk(mu_);
    model = model_;
  }
  Tensor out;
  std::exception_ptr err;
  try {
    // Stack the batch into (n, sample dims...).
    const Shape& sshape = batch.front().sample.shape();
    Shape bshape;
    bshape.reserve(sshape.size() + 1);
    bshape.push_back(n);
    bshape.insert(bshape.end(), sshape.begin(), sshape.end());
    Tensor stacked(bshape);
    const std::int64_t stride = batch.front().sample.numel();
    for (std::int64_t i = 0; i < n; ++i)
      std::memcpy(stacked.data() + i * stride,
                  batch[static_cast<std::size_t>(i)].sample.data(),
                  static_cast<std::size_t>(stride) * sizeof(float));

    out = model->run(stacked);
    CRISP_CHECK(out.dim() >= 1 && out.size(0) == n,
                "serve::Engine: model returned leading dimension "
                    << (out.dim() >= 1 ? out.size(0) : -1) << " for a batch of "
                    << n);
  } catch (...) {
    err = std::current_exception();
  }
  const std::chrono::microseconds run_us = elapsed_us(formed, Clock::now());

  std::int64_t seq = 0;
  // Aggregate counters first, so a caller observing a completed request
  // already sees it counted in stats(). Errored requests count too: they
  // still waited in the queue, and counting them into requests without
  // their queue time would bias mean_queue_us low.
  {
    std::lock_guard<std::mutex> lk(mu_);
    seq = stats_.batches;
    stats_.requests += n;
    stats_.batches += 1;
    for (const Pending& p : batch)
      stats_.total_queue_us +=
          static_cast<double>(elapsed_us(p.enqueued, formed).count());
    if (!err) {
      stats_.max_batch = std::max(stats_.max_batch, n);
      const double run = static_cast<double>(run_us.count());
      stats_.total_run_us += run * static_cast<double>(n);
      ema_run_us_ = ema_run_us_ == 0.0
                        ? run
                        : (1.0 - kEmaAlpha) * ema_run_us_ + kEmaAlpha * run;
    }
  }
  if (err) {
    for (Pending& p : batch) p.done(Response{}, err);
    return;
  }

  Shape oshape(out.shape().begin() + 1, out.shape().end());
  const std::int64_t ostride = out.numel() / n;
  for (std::int64_t i = 0; i < n; ++i) {
    Pending& p = batch[static_cast<std::size_t>(i)];
    Response r;
    r.output = Tensor(oshape,
                      std::vector<float>(out.data() + i * ostride,
                                         out.data() + (i + 1) * ostride));
    r.stats.queue_time = elapsed_us(p.enqueued, formed);
    r.stats.run_time = run_us;
    r.stats.batch_size = n;
    r.stats.batch_seq = seq;
    p.done(std::move(r), nullptr);
  }
}

}  // namespace crisp::serve
