// Tenant store: thousands of resident personalizations, one base model.
//
// The store owns the fleet's memory story (docs/tenants.md):
//   * the shared BaseArtifact is accounted once, no matter how many
//     tenants register;
//   * each registered tenant costs its MaskDelta's serialized size —
//     tens of kilobytes, so thousands of tenants fit where a handful of
//     full PackedModel copies would;
//   * a *compiled* tenant (built by acquire() on a miss) is the store's
//     one base CompiledModel with the tenant's overlay kernels substituted
//     — the dense model is shared by pointer, never cloned — so it costs
//     a fixed allowance for its kernel table and overlay objects; those
//     live in an LRU cache under an explicit byte budget.
// resident_bytes() reports exactly those three components, and the
// accounting test (tests/test_tenant.cpp) pins total ≈ base + N·delta +
// K·compiled for N ≥ 2000 registered tenants and K cache residents.
//
// Compilation happens *outside* the store lock — registration lookups and
// cache hits never wait behind a miss — and a lost insert race just serves
// the winner's artifact. excess_base_copies() audits the masks-not-models
// invariant: every cached tenant must run the store's base model and
// execute the base arena by pointer identity (bench/tenants.cpp gates it
// at exactly zero in CI).
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "tenant/overlay.h"
#include "tenant/shard.h"

namespace crisp::tenant {

/// What Store::load_shard did with a scanned shard: `scan` is the file's
/// integrity story, `loaded` the records registered (duplicates re-register
/// — last write wins, so tenant_count() can be lower), `quarantined` the
/// intact records whose delta failed validate() against this store's base
/// (wrong geometry, foreign entry — contained, never fatal).
struct ShardLoadReport {
  ShardReport scan;
  std::int64_t loaded = 0;
  std::int64_t quarantined = 0;
};

struct StoreOptions {
  /// LRU budget over compiled tenants, in bytes (a fixed allowance per
  /// resident — see Store::compiled_overhead_bytes()). When an insert
  /// pushes past it, least-recently-acquired tenants are evicted; the
  /// just-compiled tenant itself is never evicted, so one oversized model
  /// still serves.
  std::int64_t compiled_budget_bytes = 256ll << 20;
};

struct StoreStats {
  std::int64_t hits = 0;       ///< acquire() served from the compiled cache
  std::int64_t misses = 0;     ///< acquire() had to compile
  std::int64_t compiles = 0;   ///< compiled artifacts actually built & cached
  std::int64_t evictions = 0;  ///< compiled tenants dropped for the budget
};

/// resident_bytes() breakdown. The accounting identity:
///   total() = 1 x base + sum(registered deltas) + sum(cached compiled)
struct ResidentBytes {
  std::int64_t base = 0;
  std::int64_t deltas = 0;
  std::int64_t compiled = 0;
  std::int64_t total() const { return base + deltas + compiled; }
};

/// Builds a fresh instance of the served architecture; the store calls it
/// once and unpacks the base artifact into it.
using ModelFactory = std::function<std::shared_ptr<nn::Sequential>()>;

class Store {
 public:
  /// `factory` must produce the architecture the base artifact was packed
  /// from; the constructor unpacks the base into it once and compiles the
  /// base model every tenant shares.
  Store(std::shared_ptr<const BaseArtifact> base, ModelFactory factory,
        StoreOptions options = {});

  /// Registers (or replaces) tenant `id`. The delta is validated against
  /// the base; replacing invalidates any cached compiled artifact so the
  /// next acquire() serves the new personalization.
  void register_tenant(const std::string& id, MaskDelta delta);
  /// Unregisters `id` (and drops its compiled artifact). Throws when
  /// unknown.
  void remove_tenant(const std::string& id);
  bool has_tenant(const std::string& id) const;
  std::int64_t tenant_count() const;

  /// The tenant's serving artifact: cache hit, or compile-and-insert (the
  /// compile runs outside the store lock; concurrent acquires of the same
  /// tenant may both compile, one result wins the cache). Throws for an
  /// unregistered id. The returned artifact stays valid for as long as the
  /// caller holds it, eviction notwithstanding — eviction only drops the
  /// cache's reference.
  std::shared_ptr<const serve::CompiledModel> acquire(const std::string& id);

  /// The shared base model itself — no personalization, compiled once by
  /// the constructor. Every tenant artifact is this one with its overlay
  /// kernels substituted, and it is the graceful-degradation artifact
  /// tenant::Router serves when a tenant's delta is quarantined. Not
  /// counted in resident_bytes() (its packed payload is the base term), so
  /// the fleet accounting identity stays exactly base + deltas + compiled.
  std::shared_ptr<const serve::CompiledModel> acquire_base() const;

  /// Atomically persists every registered tenant (id + delta) to a
  /// CRSPSHRD shard at `path` (tenant/shard.h: temp file + fsync + atomic
  /// rename — a crash mid-save leaves the previous generation intact).
  /// Records are written in sorted id order so equal fleets produce
  /// byte-identical shards. Returns the record count. Thread-safe; the
  /// snapshot is taken under the lock, the I/O runs outside it.
  std::int64_t save_shard(const std::string& path) const;

  /// Recovers a shard into this store: every intact record is registered
  /// in file order (duplicate ids — last write wins), records that fail
  /// validation against this base are skipped and counted, and with
  /// `repair` (the default) a torn tail is truncated off the file so the
  /// log is clean for future appends. Throws only when the file is
  /// missing or not a shard — corruption is reported, never thrown.
  ShardLoadReport load_shard(const std::string& path, bool repair = true);

  std::int64_t compiled_count() const;
  ResidentBytes resident_bytes() const;
  StoreStats stats() const;
  /// Cached tenants that copy what they should share: their model is not,
  /// by pointer identity, the base model acquire_base() runs, or an
  /// overlay does not execute the base arena. Always 0 by construction
  /// today; gated at exactly zero in CI so a regression to a per-tenant
  /// model clone or payload copy cannot land silently.
  std::int64_t excess_base_copies() const;

  /// Bytes one compiled resident is accounted at: a fixed allowance for
  /// its kernel table, overlay objects, and engine-side bookkeeping. There
  /// is no dense term — residents share the base model.
  static std::int64_t compiled_overhead_bytes() { return kCompiledFixedBytes; }
  const BaseArtifact& base() const { return *base_; }
  const StoreOptions& options() const { return options_; }

 private:
  static constexpr std::int64_t kCompiledFixedBytes = 4096;

  struct Tenant {
    std::shared_ptr<const MaskDelta> delta;
    std::int64_t delta_bytes = 0;
  };
  struct Compiled {
    std::shared_ptr<const serve::CompiledModel> model;
    std::vector<std::shared_ptr<const OverlayMatrix>> overlays;
    std::shared_ptr<const MaskDelta> delta;  ///< what the model was built from
    std::int64_t bytes = 0;
    std::list<std::string>::iterator lru_it;
  };

  /// Requires mu_ held. Drops `id` from the compiled cache if present.
  void drop_compiled_locked(const std::string& id,
                            std::vector<Compiled>& reap);

  std::shared_ptr<const BaseArtifact> base_;
  StoreOptions options_;
  /// The base unpacked and compiled once; every tenant shares its model.
  std::shared_ptr<const serve::CompiledModel> base_model_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, Tenant> tenants_;
  std::unordered_map<std::string, Compiled> compiled_;
  std::list<std::string> lru_;  ///< front = most recently acquired
  std::int64_t delta_bytes_total_ = 0;
  std::int64_t compiled_bytes_total_ = 0;
  StoreStats stats_;
};

}  // namespace crisp::tenant
