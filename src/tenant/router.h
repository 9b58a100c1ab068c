// Tenant router: fleet traffic onto a budgeted pool of engines.
//
// submit(tenant_id, Request) is the fleet's front door. Behind it:
//   * tenant-affine engines — each resident serve::Engine serves exactly
//     one tenant's compiled artifact, so a request never crosses models
//     and per-engine batching coalesces same-tenant traffic naturally;
//   * a hot path that never blocks on a miss: a resident tenant's request
//     goes straight to its engine (one map lookup under the router lock,
//     the engine submit itself outside it);
//   * cold-miss compile on a side thread: the first request for a
//     non-resident tenant parks in a bounded pending list, the compiler
//     thread acquires the artifact from the Store, spins up an engine,
//     retires the least-recently-used engine past the pool cap, and
//     flushes the parked requests — with their deadlines aged by the time
//     spent waiting, so serve::Engine's admission control (priorities,
//     deadline expiry/infeasibility — serve/engine.h) stays honest
//     end-to-end;
//   * one completion path: a cold or fallback request reaches its engine
//     through serve::Engine::submit(Request, Completion), whose completion
//     fulfils the future handed out at submit time — so callers see one
//     uniform std::future<serve::Response> whether they hit hot or cold,
//     and one tenant's slow engine never holds back another's reply. The
//     compiler is the router's only thread;
//   * graceful degradation instead of crashes: a cold compile that throws
//     (corrupt delta, allocation failure — anything) is retried once with
//     bounded backoff, and if it fails again the tenant is *quarantined* —
//     its parked and future requests serve from the shared base model
//     (Store::acquire_base) and complete with Status::kDegraded, never a
//     broken future. refresh_tenant() lifts the quarantine once the delta
//     is fixed. docs/tenants.md § durability covers the contract.
// Statuses carry through unchanged: kOk/kExpired/kRejected/etc. mean the
// same thing they mean at the engine, plus the router-level cases (cold
// queue overflow → kRejected, deadline lapsed during compile → kExpired,
// shutdown with work parked → kCancelled, quarantined tenant served from
// base → kDegraded). docs/tenants.md covers tuning.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "serve/engine.h"
#include "tenant/store.h"

namespace crisp::tenant {

struct RouterOptions {
  /// Resident engine cap. Past it, the least-recently-submitted tenant's
  /// engine is retired (drains its queue, then stops). Size it with
  /// engine.thread_budget in mind: total worker threads ≈ max_engines x
  /// per-engine budget.
  std::int64_t max_engines = 4;
  /// Options every per-tenant engine is constructed with.
  serve::EngineOptions engine;
  /// Bound on requests parked behind one tenant's cold compile; beyond
  /// it, submits complete immediately with Status::kRejected.
  std::int64_t cold_queue_depth = 256;
  /// Pause before the single retry of a failed cold compile. Bounded and
  /// interruptible — shutdown never waits on it.
  std::chrono::milliseconds compile_retry_backoff{10};
};

struct RouterStats {
  std::int64_t submitted = 0;       ///< accepted into routing (hot + cold)
  std::int64_t hot = 0;             ///< served by an already-resident engine
  std::int64_t cold_misses = 0;     ///< parked behind an engine build
  std::int64_t cold_rejected = 0;   ///< cold queue overflow (kRejected)
  std::int64_t cold_expired = 0;    ///< deadline lapsed before the engine
                                    ///< existed (kExpired)
  std::int64_t cancelled = 0;       ///< parked at shutdown (kCancelled)
  std::int64_t engines_built = 0;
  std::int64_t engines_retired = 0;
  std::int64_t refreshed = 0;       ///< live engines hot-swapped by
                                    ///< refresh_tenant()
  std::int64_t compile_retries = 0; ///< failed cold compiles retried after
                                    ///< the bounded backoff
  std::int64_t quarantined = 0;     ///< tenants degraded to base-model
                                    ///< service after the retry also failed
  std::int64_t degraded = 0;        ///< responses served from the shared
                                    ///< base model (Status::kDegraded)
};

class Router {
 public:
  explicit Router(std::shared_ptr<Store> store, RouterOptions options = {});
  ~Router();  ///< shutdown()

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Routes one request to `tenant_id`'s engine, building it first when
  /// non-resident. A quarantined tenant's request goes straight to the
  /// shared base-model fallback and completes with Status::kDegraded.
  /// Throws for an unregistered tenant or after shutdown; every other
  /// outcome is a status on the returned future. Thread-safe.
  std::future<serve::Response> submit(const std::string& tenant_id,
                                      serve::Request request);

  /// Pushes a changed personalization to a live engine without a restart:
  /// re-acquires `tenant_id`'s artifact from the Store (register_tenant
  /// with a new delta already invalidated the compiled cache, so this
  /// compiles the new personalization) and hot-swaps it into the resident
  /// engine via serve::Engine::swap_model — in-flight batches finish on
  /// the old artifact, everything after serves the new one, zero failed
  /// requests. Returns false when the tenant has no resident engine (the
  /// next cold miss compiles the new delta anyway). A successful acquire
  /// also lifts the tenant's quarantine — this is the documented way back
  /// to personalized service after a delta was repaired and re-registered.
  /// Throws for an unregistered tenant or after shutdown. Thread-safe.
  bool refresh_tenant(const std::string& tenant_id);

  /// Stops accepting submissions, cancels parked cold requests
  /// (kCancelled), joins the compiler thread, then drains and retires
  /// every resident engine (Drain::kServe — already-accepted work
  /// completes). Idempotent.
  void shutdown();

  RouterStats stats() const;
  std::int64_t resident_engines() const;
  const RouterOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct EngineSlot {
    std::shared_ptr<serve::Engine> engine;
    std::list<std::string>::iterator lru_it;
  };
  /// One request parked behind a cold compile.
  struct ColdRequest {
    serve::Request request;
    std::promise<serve::Response> promise;
    Clock::time_point submitted;
  };
  void compiler_main();
  /// Completion that fulfils `to` with an engine's outcome. `degraded`
  /// marks a base-model fallback serve: kOk becomes kDegraded (counted in
  /// RouterStats::degraded) so the caller knows the personalization was
  /// bypassed. Runs on the engine's worker or, for an admission refusal,
  /// on the submitting thread — never under mu_.
  serve::Engine::Completion complete_into(std::promise<serve::Response> to,
                                          bool degraded);
  /// Retires the coldest engine past the cap. Requires mu_; returns the
  /// retired engine so the caller drains it outside the lock.
  std::shared_ptr<serve::Engine> enforce_engine_cap_locked();
  /// Returns the shared base-model fallback engine, building it on first
  /// use (outside the lock). nullptr when even the base fails to compile.
  std::shared_ptr<serve::Engine> ensure_fallback();

  std::shared_ptr<Store> store_;
  RouterOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_compile_;
  std::unordered_map<std::string, EngineSlot> engines_;
  std::list<std::string> engine_lru_;  ///< front = most recently submitted
  std::unordered_map<std::string, std::vector<ColdRequest>> pending_;
  std::deque<std::string> compile_queue_;
  /// Tenants whose compile failed twice: served from fallback_ until
  /// refresh_tenant() succeeds for them. Never counted in engines_.
  std::unordered_set<std::string> quarantined_;
  /// Base-model engine shared by every quarantined tenant; built lazily
  /// by the first degradation and retired at shutdown like the rest.
  std::shared_ptr<serve::Engine> fallback_;
  bool stopping_ = false;
  RouterStats stats_;

  std::mutex shutdown_mu_;  ///< serializes shutdown() callers (joins)

  std::thread compiler_;
};

}  // namespace crisp::tenant
