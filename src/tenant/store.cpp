#include "tenant/store.h"

#include <algorithm>
#include <utility>

#include "testing/fault_injection.h"

namespace crisp::tenant {

Store::Store(std::shared_ptr<const BaseArtifact> base, ModelFactory factory,
             StoreOptions options)
    : base_(std::move(base)), options_(options) {
  CRISP_CHECK(base_ != nullptr, "tenant::Store: null base artifact");
  CRISP_CHECK(factory != nullptr, "tenant::Store: null model factory");
  CRISP_CHECK(options_.compiled_budget_bytes >= 0,
              "tenant::Store: negative compiled budget");
  // One unpack and one compile for the whole fleet: every tenant artifact
  // is this one with its overlay kernels substituted, running the same
  // model (decoded effective base weights + carried dense state).
  std::shared_ptr<nn::Sequential> model = factory();
  CRISP_CHECK(model != nullptr, "tenant::Store: factory returned null model");
  base_->packed().unpack_into(*model);
  base_model_ =
      serve::CompiledModel::compile(std::move(model), base_->packed_ptr());
}

void Store::register_tenant(const std::string& id, MaskDelta delta) {
  delta.validate(*base_);
  Tenant t;
  t.delta_bytes = delta.delta_bytes();
  t.delta = std::make_shared<const MaskDelta>(std::move(delta));
  std::vector<Compiled> reap;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = tenants_.find(id);
    if (it != tenants_.end()) {
      delta_bytes_total_ -= it->second.delta_bytes;
      // Replacement invalidates the compiled artifact — the cache must
      // never serve a personalization the registry no longer holds.
      drop_compiled_locked(id, reap);
      it->second = std::move(t);
      delta_bytes_total_ += it->second.delta_bytes;
    } else {
      delta_bytes_total_ += t.delta_bytes;
      tenants_.emplace(id, std::move(t));
    }
  }
  // Evicted models (and their overlay kernels) are destroyed here, outside
  // the lock.
}

void Store::remove_tenant(const std::string& id) {
  std::vector<Compiled> reap;
  std::lock_guard<std::mutex> lk(mu_);
  auto it = tenants_.find(id);
  CRISP_CHECK(it != tenants_.end(),
              "tenant::Store::remove_tenant: unknown tenant " << id);
  delta_bytes_total_ -= it->second.delta_bytes;
  tenants_.erase(it);
  drop_compiled_locked(id, reap);
}

bool Store::has_tenant(const std::string& id) const {
  std::lock_guard<std::mutex> lk(mu_);
  return tenants_.count(id) != 0;
}

std::int64_t Store::tenant_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<std::int64_t>(tenants_.size());
}

std::shared_ptr<const serve::CompiledModel> Store::acquire(
    const std::string& id) {
  std::shared_ptr<const MaskDelta> delta;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto ct = compiled_.find(id);
    if (ct != compiled_.end()) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, ct->second.lru_it);
      return ct->second.model;
    }
    auto tt = tenants_.find(id);
    CRISP_CHECK(tt != tenants_.end(),
                "tenant::Store::acquire: unknown tenant " << id);
    ++stats_.misses;
    delta = tt->second.delta;
  }

  // The overlay compile runs unlocked, so hot acquires and registrations
  // never stall behind a miss.
  testing::maybe_fail("store.compile");
  OverlayCompile oc = compile_overlay(*base_model_, base_, delta);

  std::vector<Compiled> reap;
  std::shared_ptr<const serve::CompiledModel> result;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto ct = compiled_.find(id);
    if (ct != compiled_.end()) {
      // Lost a compile race; the winner's artifact is the cache's truth.
      lru_.splice(lru_.begin(), lru_, ct->second.lru_it);
      return ct->second.model;
    }
    auto tt = tenants_.find(id);
    if (tt == tenants_.end() || tt->second.delta != delta) {
      // Removed or re-registered while compiling: serve what was asked
      // for, but do not cache a personalization the registry dropped.
      return oc.model;
    }
    ++stats_.compiles;
    Compiled c;
    c.model = oc.model;
    c.overlays = std::move(oc.overlays);
    c.delta = delta;
    c.bytes = compiled_overhead_bytes();
    lru_.push_front(id);
    c.lru_it = lru_.begin();
    compiled_bytes_total_ += c.bytes;
    result = c.model;
    compiled_.emplace(id, std::move(c));
    // Evict from the cold end until the budget holds — but never the
    // artifact just inserted, so an oversized model still serves.
    while (compiled_bytes_total_ > options_.compiled_budget_bytes &&
           compiled_.size() > 1) {
      const std::string victim = lru_.back();
      drop_compiled_locked(victim, reap);
      ++stats_.evictions;
    }
  }
  return result;
}

void Store::drop_compiled_locked(const std::string& id,
                                 std::vector<Compiled>& reap) {
  auto it = compiled_.find(id);
  if (it == compiled_.end()) return;
  compiled_bytes_total_ -= it->second.bytes;
  lru_.erase(it->second.lru_it);
  reap.push_back(std::move(it->second));
  compiled_.erase(it);
}

std::int64_t Store::compiled_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<std::int64_t>(compiled_.size());
}

ResidentBytes Store::resident_bytes() const {
  std::lock_guard<std::mutex> lk(mu_);
  ResidentBytes r;
  r.base = base_->base_bytes();
  r.deltas = delta_bytes_total_;
  r.compiled = compiled_bytes_total_;
  return r;
}

StoreStats Store::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

std::shared_ptr<const serve::CompiledModel> Store::acquire_base() const {
  testing::maybe_fail("store.compile_base");
  return base_model_;
}

std::int64_t Store::save_shard(const std::string& path) const {
  std::vector<std::pair<std::string, std::shared_ptr<const MaskDelta>>> recs;
  {
    std::lock_guard<std::mutex> lk(mu_);
    recs.reserve(tenants_.size());
    for (const auto& [id, t] : tenants_) recs.emplace_back(id, t.delta);
  }
  std::sort(recs.begin(), recs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  write_shard(path, recs);
  return static_cast<std::int64_t>(recs.size());
}

ShardLoadReport Store::load_shard(const std::string& path, bool repair) {
  ShardScanResult scan = scan_shard(path, repair);
  ShardLoadReport rep;
  rep.scan = scan.report;
  for (ShardRecord& r : scan.records) {
    try {
      register_tenant(r.tenant_id, std::move(r.delta));
      ++rep.loaded;
    } catch (const std::exception&) {
      // An intact record for the wrong base (or a base that since moved
      // on) is contained: skipped, counted, never fatal to the fleet.
      ++rep.quarantined;
    }
  }
  return rep;
}

std::int64_t Store::excess_base_copies() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::int64_t excess = 0;
  for (const auto& [id, c] : compiled_) {
    bool copies = &c.model->model() != &base_model_->model();
    for (const auto& overlay : c.overlays)
      copies = copies || !overlay->aliases_base_payload();
    if (copies) ++excess;
  }
  return excess;
}

}  // namespace crisp::tenant
