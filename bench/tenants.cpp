// Tenant-fleet bench: one shared base model, thousands of resident
// mask-delta personalizations, an LRU-compiled cache, and a routed serve
// phase — all in one process. This is the memory story of the tenant
// subsystem made measurable: residency scales as
//
//   base + sum(delta_i) + K * compiled_overhead
//
// (K = what the compiled budget holds), while the naive fleet — one
// PackedModel copy per tenant — scales as N * base. The bench registers
// --tenants personalizations, sweeps an acquire() over every one of them
// (so each is compiled and served at least once), then drives a skewed
// request mix through a tenant::Router.
//
// JSON (--json PATH) is google-benchmark-shaped so tools/compare_bench.py
// gates it against the committed BENCH_tenants.json. Gated entries (a
// baseline of 0 is an exact must-stay-0 gate — see docs/benchmarks.md):
//   Tenants/fleet/gate_excess_base_copies   aliasing audit: every overlay
//                                           must point into the one base
//                                           arena, never a private copy
//   Tenants/fleet/gate_failed_requests      every routed request resolves kOk
//   Tenants/fleet/gate_resident_over_budget compiled residency never exceeds
//                                           the configured budget (bytes over)
//   Tenants/fleet/gate_lost_tenants         save -> fresh store -> load must
//                                           recover every registered tenant
//   Tenants/fleet/gate_crc_failures         a just-written shard must scan
//                                           with zero integrity failures
// Everything else (delta sizes, residency split, naive-fleet comparison,
// hit/evict counts, serve rps, shard save/load times, what one compiled
// resident costs in bytes and in cold-compile time) is informational.
//
// Usage:
//   bench_tenants [--tenants N] [--engines E] [--budget-mib M]
//                 [--requests R] [--seed S] [--json PATH] [--quiet]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/block_pruning.h"
#include "nn/activations.h"
#include "nn/linear.h"
#include "tenant/router.h"

namespace {

using namespace crisp;
using Clock = std::chrono::steady_clock;

constexpr std::int64_t kBlock = 8, kN = 2, kM = 4;
/// The universal pattern keeps this fraction of block columns; every
/// tenant then drops one more surviving block per block-row (its
/// class-aware restriction), so deltas differ tenant to tenant.
constexpr std::int64_t kPrunedRanks = 2;

/// The shared base: an MLP big enough that "a copy per tenant" visibly
/// does not scale, small enough that registering thousands of tenants
/// (each one a full mask derivation) stays a sub-second setup.
std::shared_ptr<nn::Sequential> make_base_model() {
  Rng rng(11);
  auto model = std::make_shared<nn::Sequential>("fleet_mlp");
  model->emplace<nn::Linear>("fc1", 128, 96, rng);
  model->emplace<nn::ReLU>("relu1");
  model->emplace<nn::Linear>("fc2", 96, 64, rng);
  model->emplace<nn::ReLU>("relu2");
  model->emplace<nn::Linear>("head", 64, 16, rng);
  return model;
}

/// Zeroes one *surviving* block per block-row of every masked parameter,
/// selected by `salt` — the per-tenant restriction on top of the shared
/// pattern. Mirrors what a class-aware pruner produces: uniform per-row
/// drop counts, so the result stays a valid CRISP pattern.
void drop_one_block_per_row(nn::Sequential& model, std::uint64_t salt) {
  for (nn::Parameter* p : model.prunable_parameters()) {
    if (!p->has_mask()) continue;
    const std::int64_t rows = p->matrix_rows, cols = p->matrix_cols;
    const std::int64_t grid_rows = (rows + kBlock - 1) / kBlock;
    const std::int64_t grid_cols = (cols + kBlock - 1) / kBlock;
    float* mask = p->mask.data();
    for (std::int64_t br = 0; br < grid_rows; ++br) {
      const std::int64_t r0 = br * kBlock, r1 = std::min(rows, r0 + kBlock);
      std::vector<std::int64_t> survivors;
      for (std::int64_t bc = 0; bc < grid_cols; ++bc) {
        const std::int64_t c0 = bc * kBlock, c1 = std::min(cols, c0 + kBlock);
        bool live = false;
        for (std::int64_t r = r0; r < r1 && !live; ++r)
          for (std::int64_t c = c0; c < c1; ++c)
            if (mask[r * cols + c] != 0.0f) {
              live = true;
              break;
            }
        if (live) survivors.push_back(bc);
      }
      if (survivors.empty()) continue;
      const std::int64_t bc = survivors[static_cast<std::size_t>(
          (salt + static_cast<std::uint64_t>(br)) % survivors.size())];
      const std::int64_t c0 = bc * kBlock, c1 = std::min(cols, c0 + kBlock);
      for (std::int64_t r = r0; r < r1; ++r)
        for (std::int64_t c = c0; c < c1; ++c) mask[r * cols + c] = 0.0f;
    }
  }
}

tenant::MaskDelta make_tenant_delta(const tenant::BaseArtifact& base,
                                    std::uint64_t salt) {
  // Same factory + same default seed reconstructs the base pattern; the
  // salt then picks which surviving blocks this tenant gives up.
  std::shared_ptr<nn::Sequential> model = make_base_model();
  core::install_random_hybrid_masks(*model, kBlock, kN, kM, kPrunedRanks);
  drop_one_block_per_row(*model, salt);
  return tenant::MaskDelta::from_model(base, *model);
}

std::string tenant_id(std::int64_t i) {
  std::string id = "t";
  id += std::to_string(i);
  return id;
}

double uniform01(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

// ---- JSON (compare_bench.py-compatible, same shape as bench_loadgen) --------

void json_entry(std::FILE* f, bool* first, const std::string& name,
                double value) {
  std::fprintf(f, "%s\n    {\"name\": \"%s\", \"run_name\": \"%s\", "
               "\"run_type\": \"iteration\", \"iterations\": 1, "
               "\"real_time\": %.4f, \"cpu_time\": %.4f, "
               "\"time_unit\": \"us\"}",
               *first ? "" : ",", name.c_str(), name.c_str(), value, value);
  *first = false;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t tenants = 2000;
  std::int64_t engines = 4;
  std::int64_t budget_mib = 0;  // 0 => sized to hold 8 compiled residents
  std::int64_t requests = 512;
  std::uint64_t seed = 42;
  std::string json_path;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "tenants: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--tenants") tenants = std::atoll(next());
    else if (arg == "--engines") engines = std::atoll(next());
    else if (arg == "--budget-mib") budget_mib = std::atoll(next());
    else if (arg == "--requests") requests = std::atoll(next());
    else if (arg == "--seed") seed = std::strtoull(next(), nullptr, 10);
    else if (arg == "--json") json_path = next();
    else if (arg == "--quiet") quiet = true;
    else {
      std::fprintf(stderr, "tenants: unknown argument %s (see header)\n",
                   arg.c_str());
      return 2;
    }
  }

  const tenant::ModelFactory factory = [] { return make_base_model(); };

  // Base artifact: the one copy of the universal pruned model.
  auto base = [&] {
    std::shared_ptr<nn::Sequential> model = factory();
    core::install_random_hybrid_masks(*model, kBlock, kN, kM, kPrunedRanks);
    return tenant::BaseArtifact::create(
        std::make_shared<const deploy::PackedModel>(
            deploy::PackedModel::pack(*model, kBlock, kN, kM)));
  }();

  tenant::StoreOptions sopts;
  sopts.compiled_budget_bytes =
      budget_mib > 0 ? budget_mib << 20
                     : 8 * tenant::Store::compiled_overhead_bytes();
  auto store = std::make_shared<tenant::Store>(base, factory, sopts);

  // ---- register the fleet ---------------------------------------------------
  const Clock::time_point t_reg0 = Clock::now();
  for (std::int64_t i = 0; i < tenants; ++i)
    store->register_tenant(tenant_id(i), make_tenant_delta(*base, seed + i));
  const double register_s =
      std::chrono::duration<double>(Clock::now() - t_reg0).count();

  // ---- compile sweep: every tenant materialized at least once ---------------
  // Touches all N personalizations through the LRU cache, so the budget,
  // eviction, and aliasing machinery all run at fleet scale.
  // Each acquire here is a cold compile, so the sweep also times them.
  std::vector<double> compile_us;
  compile_us.reserve(static_cast<std::size_t>(tenants));
  const Clock::time_point t_sweep0 = Clock::now();
  for (std::int64_t i = 0; i < tenants; ++i) {
    const Clock::time_point t0 = Clock::now();
    if (store->acquire(tenant_id(i)) == nullptr) {
      std::fprintf(stderr, "tenants: acquire(%s) returned null\n",
                   tenant_id(i).c_str());
      return 1;
    }
    compile_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
  const double sweep_s =
      std::chrono::duration<double>(Clock::now() - t_sweep0).count();
  std::sort(compile_us.begin(), compile_us.end());
  const double cold_compile_us =
      compile_us.empty() ? 0.0 : compile_us[compile_us.size() / 2];

  // ---- routed serve phase ---------------------------------------------------
  // Skewed mix: most requests hit a hot set the size of the engine pool
  // (the affinity fast path), the rest land uniformly across the fleet
  // (cold compiles + engine retirement).
  tenant::RouterOptions ropts;
  ropts.max_engines = engines;
  tenant::Router router(store, ropts);
  std::mt19937_64 rng(seed);
  Rng sample_rng(seed + 1);
  const Tensor sample = Tensor::randn({128}, sample_rng);

  // Prewarm: build the hot set's engines before the timed phase, so the
  // measured mix actually exercises the affinity fast path instead of
  // parking everything behind the very first cold compile.
  for (std::int64_t t = 0; t < std::min(engines, tenants); ++t) {
    serve::Request warm;
    warm.sample = sample;
    router.submit(tenant_id(t), std::move(warm)).get();
  }

  std::vector<std::future<serve::Response>> inflight;
  inflight.reserve(static_cast<std::size_t>(requests));
  const Clock::time_point t_serve0 = Clock::now();
  for (std::int64_t r = 0; r < requests; ++r) {
    const std::int64_t t =
        uniform01(rng) < 0.85
            ? static_cast<std::int64_t>(rng()) % std::min(engines, tenants)
            : static_cast<std::int64_t>(rng()) % tenants;
    serve::Request req;
    req.sample = sample;
    inflight.push_back(router.submit(tenant_id(std::llabs(t)), std::move(req)));
  }
  std::int64_t failed = 0;
  for (auto& f : inflight)
    if (f.get().status != serve::Response::Status::kOk) ++failed;
  const double serve_s =
      std::chrono::duration<double>(Clock::now() - t_serve0).count();
  const tenant::RouterStats rstats = router.stats();
  router.shutdown();

  // ---- durability phase: save -> restart -> load -> serve -------------------
  // The whole fleet goes to a CRSPSHRD shard (atomic temp+rename write),
  // comes back into a *fresh* store — the process-restart story — and the
  // recovered fleet serves routed traffic. Gated: zero tenants lost, zero
  // integrity failures on a just-written shard, and the recovered serve
  // counts into gate_failed_requests like any other routed request.
  const std::string shard_path =
      "/tmp/bench_tenants_" + std::to_string(seed) + ".shard";
  const Clock::time_point t_save0 = Clock::now();
  const std::int64_t shard_saved = store->save_shard(shard_path);
  const double save_s =
      std::chrono::duration<double>(Clock::now() - t_save0).count();

  auto restored = std::make_shared<tenant::Store>(base, factory, sopts);
  const Clock::time_point t_load0 = Clock::now();
  const tenant::ShardLoadReport lrep = restored->load_shard(shard_path);
  const double load_s =
      std::chrono::duration<double>(Clock::now() - t_load0).count();
  std::remove(shard_path.c_str());

  const std::int64_t lost_tenants = tenants - restored->tenant_count();
  const std::int64_t crc_failures =
      lrep.scan.crc_failures + lrep.scan.malformed + lrep.quarantined;

  {
    tenant::Router recovered_router(restored, ropts);
    for (std::int64_t t = 0; t < std::min(engines, tenants); ++t) {
      serve::Request req;
      req.sample = sample;
      if (recovered_router.submit(tenant_id(t), std::move(req)).get().status !=
          serve::Response::Status::kOk)
        ++failed;
    }
  }

  // ---- accounting -----------------------------------------------------------
  const tenant::ResidentBytes res = store->resident_bytes();
  const tenant::StoreStats stats = store->stats();
  const std::int64_t base_bytes = base->base_bytes();
  const std::int64_t over_budget =
      std::max<std::int64_t>(0, res.compiled - sopts.compiled_budget_bytes);
  const std::int64_t excess = store->excess_base_copies();
  const double mean_delta =
      static_cast<double>(res.deltas) / static_cast<double>(tenants);
  const double compiled_kib_per_tenant =
      static_cast<double>(res.compiled) / 1024.0 /
      static_cast<double>(std::max<std::int64_t>(1, store->compiled_count()));
  const double naive_kib =
      static_cast<double>(tenants * base_bytes) / 1024.0;
  const double rps = static_cast<double>(requests) / serve_s;

  if (!quiet) {
    std::printf("=== tenant fleet: %lld tenants, %lld engines, budget %.0f "
                "KiB ===\n",
                static_cast<long long>(tenants),
                static_cast<long long>(engines),
                static_cast<double>(sopts.compiled_budget_bytes) / 1024.0);
    std::printf("base artifact      %8.1f KiB (shared, one copy)\n",
                static_cast<double>(base_bytes) / 1024.0);
    std::printf("deltas             %8.1f KiB total, %.0f B/tenant mean\n",
                static_cast<double>(res.deltas) / 1024.0, mean_delta);
    std::printf("compiled cache     %8.1f KiB (%lld resident, %.1f KiB "
                "each)\n",
                static_cast<double>(res.compiled) / 1024.0,
                static_cast<long long>(store->compiled_count()),
                compiled_kib_per_tenant);
    std::printf("resident total     %8.1f KiB vs naive N x base %.1f KiB "
                "(%.1fx smaller)\n",
                static_cast<double>(res.total()) / 1024.0, naive_kib,
                naive_kib / (static_cast<double>(res.total()) / 1024.0));
    std::printf("sweep              %lld compiles, %lld evictions, %.2f s "
                "(%.0f compiles/s, median cold compile %.1f us)\n",
                static_cast<long long>(stats.compiles),
                static_cast<long long>(stats.evictions), sweep_s,
                static_cast<double>(tenants) / sweep_s, cold_compile_us);
    std::printf("serve              %lld requests (%lld hot, %lld cold) in "
                "%.2f s = %.0f rps, %lld failed\n",
                static_cast<long long>(requests),
                static_cast<long long>(rstats.hot),
                static_cast<long long>(rstats.cold_misses), serve_s, rps,
                static_cast<long long>(failed));
    std::printf("register           %.2f s | excess base copies %lld | "
                "compiled over budget %lld B\n",
                register_s, static_cast<long long>(excess),
                static_cast<long long>(over_budget));
    std::printf("durability         %lld records saved in %.2f s, recovered "
                "%lld in %.2f s | lost %lld, integrity failures %lld\n",
                static_cast<long long>(shard_saved), save_s,
                static_cast<long long>(lrep.loaded), load_s,
                static_cast<long long>(lost_tenants),
                static_cast<long long>(crc_failures));
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "tenants: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"context\": {\"executable\": \"bench_tenants\", "
                 "\"seed\": %llu},\n  \"benchmarks\": [",
                 static_cast<unsigned long long>(seed));
    bool first = true;
    const std::string b = "Tenants/fleet/";
    // Gated entries: all three record 0, so compare_bench.py holds them
    // at exactly 0 forever.
    json_entry(f, &first, b + "gate_excess_base_copies",
               static_cast<double>(excess));
    json_entry(f, &first, b + "gate_failed_requests",
               static_cast<double>(failed));
    json_entry(f, &first, b + "gate_resident_over_budget",
               static_cast<double>(over_budget));
    json_entry(f, &first, b + "gate_lost_tenants",
               static_cast<double>(lost_tenants));
    json_entry(f, &first, b + "gate_crc_failures",
               static_cast<double>(crc_failures));
    // Informational entries.
    json_entry(f, &first, b + "tenants", static_cast<double>(tenants));
    json_entry(f, &first, b + "base_kib",
               static_cast<double>(base_bytes) / 1024.0);
    json_entry(f, &first, b + "mean_delta_bytes", mean_delta);
    json_entry(f, &first, b + "resident_kib",
               static_cast<double>(res.total()) / 1024.0);
    json_entry(f, &first, b + "naive_fleet_kib", naive_kib);
    json_entry(f, &first, b + "compiles", static_cast<double>(stats.compiles));
    json_entry(f, &first, b + "hits", static_cast<double>(stats.hits));
    json_entry(f, &first, b + "evictions",
               static_cast<double>(stats.evictions));
    json_entry(f, &first, b + "serve_rps", rps);
    json_entry(f, &first, b + "shard_save_ms", save_s * 1e3);
    json_entry(f, &first, b + "shard_load_ms", load_s * 1e3);
    json_entry(f, &first, b + "compiled_kib_per_tenant",
               compiled_kib_per_tenant);
    json_entry(f, &first, b + "cold_compile_us", cold_compile_us);
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
  }
  return failed == 0 && excess == 0 && over_budget == 0 && lost_tenants == 0 &&
                 crc_failures == 0
             ? 0
             : 1;
}
