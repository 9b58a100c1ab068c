#include "tenant/router.h"

#include <stdexcept>
#include <utility>

namespace crisp::tenant {

Router::Router(std::shared_ptr<Store> store, RouterOptions options)
    : store_(std::move(store)), options_(options) {
  CRISP_CHECK(store_ != nullptr, "tenant::Router: null store");
  CRISP_CHECK(options_.max_engines >= 1,
              "tenant::Router: max_engines must be >= 1, got "
                  << options_.max_engines);
  CRISP_CHECK(options_.cold_queue_depth >= 1,
              "tenant::Router: cold_queue_depth must be >= 1, got "
                  << options_.cold_queue_depth);
  compiler_ = std::thread([this] { compiler_main(); });
}

Router::~Router() { shutdown(); }

std::future<serve::Response> Router::submit(const std::string& tenant_id,
                                            serve::Request request) {
  CRISP_CHECK(!request.sample.empty(), "tenant::Router::submit: empty sample");
  const int pr = static_cast<int>(request.priority);
  CRISP_CHECK(pr >= 0 && pr < serve::kPriorityCount,
              "tenant::Router::submit: invalid priority " << pr);

  // Hot path: one map lookup under the router lock, the engine submit
  // itself outside it (it may block under Overflow::kBlock; the router
  // must stay routable meanwhile). The shared_ptr copy keeps the engine
  // alive across a concurrent retirement — retiring only drops the pool's
  // reference, and an engine drains on destruction, so a request that got
  // its engine always gets its response.
  std::shared_ptr<serve::Engine> engine;
  std::shared_ptr<serve::Engine> fallback;
  bool quarantined = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_)
      throw std::runtime_error("tenant::Router: submit after shutdown");
    auto it = engines_.find(tenant_id);
    if (it != engines_.end()) {
      engine_lru_.splice(engine_lru_.begin(), engine_lru_, it->second.lru_it);
      ++stats_.submitted;
      ++stats_.hot;
      engine = it->second.engine;
    } else if (quarantined_.count(tenant_id) != 0) {
      // Compile already failed twice for this tenant: no point parking
      // behind another doomed attempt — serve the shared base directly.
      quarantined = true;
      fallback = fallback_;
      if (fallback != nullptr) ++stats_.submitted;
    }
  }
  if (engine) return engine->submit(std::move(request));
  if (quarantined) {
    std::promise<serve::Response> to;
    std::future<serve::Response> fut = to.get_future();
    if (fallback == nullptr) {
      // Even the base model failed to compile — refuse rather than crash.
      serve::Response r;
      r.status = serve::Response::Status::kRejected;
      to.set_value(std::move(r));
      return fut;
    }
    fallback->submit(std::move(request),
                     complete_into(std::move(to), /*degraded=*/true));
    return fut;
  }

  CRISP_CHECK(store_->has_tenant(tenant_id),
              "tenant::Router::submit: unknown tenant " << tenant_id);

  // Cold miss: park behind the compile. The deadline stays relative in
  // the parked request; the compiler ages it by the wait when flushing,
  // so "1 ms from submit" means 1 ms from *submit*, not from engine birth.
  ColdRequest cr;
  cr.request = std::move(request);
  cr.submitted = Clock::now();
  std::future<serve::Response> fut = cr.promise.get_future();
  bool rejected = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_)
      throw std::runtime_error("tenant::Router: submit after shutdown");
    auto [pit, fresh] = pending_.try_emplace(tenant_id);
    if (static_cast<std::int64_t>(pit->second.size()) >=
        options_.cold_queue_depth) {
      ++stats_.cold_rejected;
      rejected = true;
    } else {
      ++stats_.submitted;
      ++stats_.cold_misses;
      pit->second.push_back(std::move(cr));
      // A fresh pending entry means no compile job covers this tenant yet
      // (the compiler erases the entry in the same critical section it
      // takes the requests, so entry-present == job-covered).
      if (fresh) compile_queue_.push_back(tenant_id);
    }
  }
  if (rejected) {
    serve::Response r;
    r.status = serve::Response::Status::kRejected;
    cr.promise.set_value(std::move(r));
    return fut;
  }
  cv_compile_.notify_one();
  return fut;
}

void Router::compiler_main() {
  for (;;) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_compile_.wait(lk,
                     [&] { return stopping_ || !compile_queue_.empty(); });
    if (compile_queue_.empty()) return;  // stopping and drained
    const std::string id = std::move(compile_queue_.front());
    compile_queue_.pop_front();
    std::shared_ptr<serve::Engine> engine;
    auto eit = engines_.find(id);
    if (eit != engines_.end()) engine = eit->second.engine;
    lk.unlock();

    // Build the engine outside the lock — this is the slow part (delta
    // validation + overlay compile via Store::acquire), and hot routing must
    // not stall behind it. Any exception out of the delta apply / overlay
    // compile (corrupt stream, allocation failure, an injected fault) is
    // contained here: one bounded-backoff retry, then quarantine + the
    // base-model fallback. The compiler thread itself never dies, and no
    // parked future is ever left broken.
    std::shared_ptr<serve::Engine> retired;
    std::shared_ptr<serve::Engine> fallback;
    if (engine == nullptr) {
      try {
        engine = std::make_shared<serve::Engine>(store_->acquire(id),
                                                 options_.engine);
      } catch (...) {
        // Transient failures (allocation pressure, a delta replaced
        // mid-compile) deserve one more attempt before the tenant
        // degrades. The backoff waits on cv_compile_ so shutdown can
        // interrupt it.
        {
          std::unique_lock<std::mutex> blk(mu_);
          ++stats_.compile_retries;
          cv_compile_.wait_for(blk, options_.compile_retry_backoff,
                               [&] { return stopping_; });
        }
        try {
          engine = std::make_shared<serve::Engine>(store_->acquire(id),
                                                   options_.engine);
        } catch (...) {
          // Second failure: quarantine. Parked and future requests serve
          // from the shared base model as kDegraded.
          fallback = ensure_fallback();
          std::lock_guard<std::mutex> qlk(mu_);
          if (quarantined_.insert(id).second) ++stats_.quarantined;
        }
      }
      if (engine != nullptr) {
        lk.lock();
        if (stopping_) {
          // Shutdown won the race: nothing is pending (shutdown cancels
          // all parked work when it sets stopping_), so the engine just
          // drains empty when the local ref drops.
          lk.unlock();
          engine.reset();
          return;
        }
        ++stats_.engines_built;
        engine_lru_.push_front(id);
        engines_[id] = EngineSlot{engine, engine_lru_.begin()};
        retired = enforce_engine_cap_locked();
        lk.unlock();
      }
    }
    std::vector<ColdRequest> flush;
    lk.lock();
    auto pit = pending_.find(id);
    if (pit != pending_.end()) {
      flush = std::move(pit->second);
      pending_.erase(pit);
    }
    lk.unlock();

    const Clock::time_point now = Clock::now();
    std::int64_t expired = 0;
    serve::Engine* target = engine ? engine.get() : fallback.get();
    for (ColdRequest& cr : flush) {
      if (target == nullptr) {
        // Compile failed twice and even the base model would not build:
        // complete the future with a refusal — never an exception.
        serve::Response r;
        r.status = serve::Response::Status::kRejected;
        cr.promise.set_value(std::move(r));
        continue;
      }
      if (cr.request.deadline.count() > 0) {
        const auto waited = std::chrono::duration_cast<std::chrono::microseconds>(
            now - cr.submitted);
        if (waited >= cr.request.deadline) {
          // The deadline lapsed before an engine existed — same contract
          // as the engine's own queue expiry: never served late.
          serve::Response r;
          r.status = serve::Response::Status::kExpired;
          r.stats.queue_time = waited;
          cr.promise.set_value(std::move(r));
          ++expired;
          continue;
        }
        cr.request.deadline -= waited;
      }
      target->submit(std::move(cr.request),
                     complete_into(std::move(cr.promise), engine == nullptr));
    }
    if (expired > 0) {
      std::lock_guard<std::mutex> slk(mu_);
      stats_.cold_expired += expired;
    }
    // Only now drop the retired engine: its destructor drains its whole
    // queue (Drain::kServe) on this thread, and the requests just flushed
    // must not wait behind another tenant's backlog. A hot submitter
    // holding its own reference defers that drain until its submit returns.
    retired.reset();
  }
}

serve::Engine::Completion Router::complete_into(
    std::promise<serve::Response> to, bool degraded) {
  auto promise = std::make_shared<std::promise<serve::Response>>(std::move(to));
  return [this, promise, degraded](serve::Response r, std::exception_ptr err) {
    if (err) {
      promise->set_exception(std::move(err));
      return;
    }
    if (degraded && r.status == serve::Response::Status::kOk) {
      // Served, but from the shared base instead of the tenant's
      // personalization — the caller must be able to tell.
      r.status = serve::Response::Status::kDegraded;
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.degraded;
    }
    promise->set_value(std::move(r));
  };
}

std::shared_ptr<serve::Engine> Router::ensure_fallback() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (fallback_ != nullptr) return fallback_;
    if (stopping_) return nullptr;
  }
  std::shared_ptr<serve::Engine> built;
  try {
    built = std::make_shared<serve::Engine>(store_->acquire_base(),
                                            options_.engine);
  } catch (...) {
    return nullptr;  // even the base failed; callers refuse with kRejected
  }
  std::lock_guard<std::mutex> lk(mu_);
  if (fallback_ == nullptr) fallback_ = built;
  return fallback_;
}

std::shared_ptr<serve::Engine> Router::enforce_engine_cap_locked() {
  if (static_cast<std::int64_t>(engines_.size()) <= options_.max_engines)
    return nullptr;
  const std::string victim = engine_lru_.back();
  auto it = engines_.find(victim);
  std::shared_ptr<serve::Engine> retired = std::move(it->second.engine);
  engine_lru_.erase(it->second.lru_it);
  engines_.erase(it);
  ++stats_.engines_retired;
  return retired;
}

void Router::shutdown() {
  std::lock_guard<std::mutex> serialized(shutdown_mu_);
  std::vector<ColdRequest> parked;
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
    for (auto& [id, vec] : pending_)
      for (ColdRequest& cr : vec) parked.push_back(std::move(cr));
    pending_.clear();
    stats_.cancelled += static_cast<std::int64_t>(parked.size());
    cv_compile_.notify_all();
  }
  const Clock::time_point now = Clock::now();
  for (ColdRequest& cr : parked) {
    serve::Response r;
    r.status = serve::Response::Status::kCancelled;
    r.stats.queue_time =
        std::chrono::duration_cast<std::chrono::microseconds>(now -
                                                              cr.submitted);
    cr.promise.set_value(std::move(r));
  }
  if (compiler_.joinable()) compiler_.join();

  // Retire every engine — the fallback included: drop the pool's
  // references and let the destructors drain accepted work
  // (Drain::kServe), so every request that reached an engine completes.
  std::unordered_map<std::string, EngineSlot> engines;
  std::shared_ptr<serve::Engine> fallback;
  {
    std::lock_guard<std::mutex> lk(mu_);
    engines = std::move(engines_);
    engines_.clear();
    engine_lru_.clear();
    fallback = std::move(fallback_);
    fallback_.reset();
  }
  engines.clear();
  fallback.reset();
}

bool Router::refresh_tenant(const std::string& tenant_id) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    CRISP_CHECK(!stopping_, "tenant::Router: refresh after shutdown");
  }
  // Compile the refreshed artifact outside the router lock (the Store's
  // cache was invalidated when the new delta registered, so this builds
  // the new personalization; an unregistered tenant throws here).
  std::shared_ptr<const serve::CompiledModel> artifact =
      store_->acquire(tenant_id);

  std::shared_ptr<serve::Engine> engine;
  {
    std::lock_guard<std::mutex> lk(mu_);
    // The artifact compiled, so whatever quarantined this tenant is fixed:
    // normal (cold-compile) service resumes with the next submit.
    quarantined_.erase(tenant_id);
    auto it = engines_.find(tenant_id);
    if (it == engines_.end()) return false;  // not resident; nothing to swap
    engine = it->second.engine;
    stats_.refreshed += 1;
  }
  engine->swap_model(std::move(artifact));
  return true;
}

RouterStats Router::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

std::int64_t Router::resident_engines() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<std::int64_t>(engines_.size());
}

}  // namespace crisp::tenant
