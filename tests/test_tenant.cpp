// Tenant-subsystem tests: MaskDelta round-trip and stream robustness,
// overlay-vs-standalone execution parity, Store LRU accounting at fleet
// scale (N >= 2000 registered tenants), and the Router's cold-miss,
// affinity, and deadline semantics.
//
// The load-bearing invariant: a personalization is a *view* of the base,
// not a copy of it. The overlay path (what the Store serves) and the
// standalone path (MaskDelta::apply, what you'd ship to a device) must
// produce bit-identical outputs — same kept blocks in stored order, same
// accumulation order, same per-block-row scales on the int8 path — at any
// kernel thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/block_pruning.h"
#include "kernels/parallel_for.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "tenant/router.h"
#include "testing/fault_injection.h"
#include "thread_guard.h"

namespace crisp::tenant {
namespace {

using core::install_random_hybrid_masks;
using crisp::testing::ThreadGuard;

constexpr std::int64_t kBlock = 8, kN = 2, kM = 4;

std::shared_ptr<nn::Sequential> make_mlp() {
  Rng rng(9);
  auto model = std::make_shared<nn::Sequential>("tenantmlp");
  model->emplace<nn::Linear>("fc1", 32, 24, rng);
  model->emplace<nn::ReLU>("relu");
  model->emplace<nn::Linear>("fc2", 24, 8, rng);
  return model;
}

/// Conv net that accepts any input H, W (global pooling before the head).
std::shared_ptr<nn::Sequential> make_convnet() {
  Rng rng(7);
  auto model = std::make_shared<nn::Sequential>("tenantnet");
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

std::string tenant_id(int i) {
  std::string id = "t";
  id += std::to_string(i);
  return id;
}

/// Zeroes `drop_per_row` *surviving* blocks in every block-row of every
/// masked parameter — the class-aware restriction a tenant pruner would
/// produce on top of the universal pattern. `salt` varies which blocks
/// go, so distinct salts model distinct tenants; per-row drop counts stay
/// uniform (the CRISP invariant MaskDelta::from_model checks).
void drop_surviving_blocks(nn::Sequential& model, std::int64_t drop_per_row,
                           std::uint64_t salt) {
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
      ASSERT_LE(drop_per_row, static_cast<std::int64_t>(survivors.size()))
          << p->name << " block-row " << br;
      for (std::int64_t i = 0; i < drop_per_row; ++i) {
        // Consecutive residues are distinct while drop <= survivor count.
        const std::int64_t bc = survivors[static_cast<std::size_t>(
            (salt + static_cast<std::uint64_t>(br + i)) % survivors.size())];
        const std::int64_t c0 = bc * kBlock, c1 = std::min(cols, c0 + kBlock);
        for (std::int64_t r = r0; r < r1; ++r)
          for (std::int64_t c = c0; c < c1; ++c) mask[r * cols + c] = 0.0f;
      }
    }
  }
}

std::shared_ptr<const BaseArtifact> make_base(const ModelFactory& factory,
                                              std::int64_t pruned_ranks,
                                              bool quantize = false) {
  std::shared_ptr<nn::Sequential> model = factory();
  install_random_hybrid_masks(*model, kBlock, kN, kM, pruned_ranks);
  deploy::PackedModel packed =
      deploy::PackedModel::pack(*model, kBlock, kN, kM);
  if (quantize) packed.quantize_payloads();
  return BaseArtifact::create(
      std::make_shared<const deploy::PackedModel>(std::move(packed)));
}

/// A tenant's delta: the base pattern (same seed as make_base) minus
/// `drop_per_row` extra blocks per row, selected by `salt`.
MaskDelta tenant_delta(const BaseArtifact& base, const ModelFactory& factory,
                       std::int64_t pruned_ranks, std::uint64_t salt,
                       std::int64_t drop_per_row = 1) {
  std::shared_ptr<nn::Sequential> model = factory();
  install_random_hybrid_masks(*model, kBlock, kN, kM, pruned_ranks);
  drop_surviving_blocks(*model, drop_per_row, salt);
  return MaskDelta::from_model(base, *model);
}

/// The zero-copy serving path: overlay kernels over the base arena.
std::shared_ptr<const serve::CompiledModel> compile_overlay_model(
    std::shared_ptr<const BaseArtifact> base,
    std::shared_ptr<const MaskDelta> delta, const ModelFactory& factory,
    std::vector<std::shared_ptr<const OverlayMatrix>>* overlays = nullptr) {
  std::shared_ptr<nn::Sequential> model = factory();
  base->packed().unpack_into(*model);
  const auto base_model =
      serve::CompiledModel::compile(std::move(model), base->packed_ptr());
  OverlayCompile oc = compile_overlay(*base_model, base, delta);
  if (overlays != nullptr) *overlays = oc.overlays;
  return oc.model;
}

/// The ship-to-device path: a self-contained restricted PackedModel.
std::shared_ptr<const serve::CompiledModel> compile_standalone(
    const BaseArtifact& base, const MaskDelta& delta,
    const ModelFactory& factory) {
  auto packed =
      std::make_shared<const deploy::PackedModel>(delta.apply(base));
  std::shared_ptr<nn::Sequential> model = factory();
  packed->unpack_into(*model);
  return serve::CompiledModel::compile(model, packed);
}

serve::Request make_request(Tensor sample,
                            serve::Priority priority = serve::Priority::kStandard,
                            std::chrono::microseconds deadline =
                                std::chrono::microseconds(0)) {
  serve::Request r;
  r.sample = std::move(sample);
  r.priority = priority;
  r.deadline = deadline;
  return r;
}

/// Serial single-sample reference through the same compiled artifact.
Tensor serial_reference(const serve::CompiledModel& compiled,
                        const Tensor& sample) {
  Shape batched{1};
  batched.insert(batched.end(), sample.shape().begin(), sample.shape().end());
  Tensor out = compiled.run(sample.reshaped(batched));
  Shape flat(out.shape().begin() + 1, out.shape().end());
  return out.reshaped(flat);
}

// ---------------------------------------------------------------------------
// MaskDelta: derivation, stream, robustness.

TEST(MaskDelta, StreamRoundTripAndExactByteAccounting) {
  auto base = make_base(make_mlp, 0);
  MaskDelta delta = tenant_delta(*base, make_mlp, 0, 5);
  ASSERT_EQ(delta.entries().size(), 2u);
  delta.set_scale_overrides("fc1.weight", {0.5f, 1.5f, 2.5f});

  std::stringstream os(std::ios::in | std::ios::out | std::ios::binary);
  delta.write(os);
  // delta_bytes() is what tenant::Store accounts per tenant — it must be
  // the true serialized size, not an estimate.
  EXPECT_EQ(static_cast<std::int64_t>(os.str().size()), delta.delta_bytes());

  const MaskDelta back = MaskDelta::read(os);
  EXPECT_EQ(back.block(), kBlock);
  EXPECT_EQ(back.n(), kN);
  EXPECT_EQ(back.m(), kM);
  ASSERT_EQ(back.entries().size(), delta.entries().size());
  for (std::size_t i = 0; i < delta.entries().size(); ++i) {
    const EntryDelta& a = delta.entries()[i];
    const EntryDelta& b = back.entries()[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.grid_rows, b.grid_rows);
    EXPECT_EQ(a.base_blocks_per_row, b.base_blocks_per_row);
    EXPECT_EQ(a.kept_per_row, b.kept_per_row);
    EXPECT_EQ(a.kept_bits, b.kept_bits);
    EXPECT_EQ(a.scale_overrides, b.scale_overrides);
  }
  EXPECT_NO_THROW(back.validate(*base));
}

MaskDelta read_delta_bytes(const std::string& bytes) {
  std::stringstream is(std::ios::in | std::ios::out | std::ios::binary);
  is.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return MaskDelta::read(is);
}

std::string delta_stream(const MaskDelta& delta) {
  std::stringstream os(std::ios::in | std::ios::out | std::ios::binary);
  delta.write(os);
  return os.str();
}

TEST(MaskDelta, StreamRejectsTruncationAtEveryPrefix) {
  auto base = make_base(make_mlp, 0);
  const std::string bytes = delta_stream(tenant_delta(*base, make_mlp, 0, 2));
  // Every strict prefix must throw the documented runtime_error — no
  // crash, no silently partial delta (exercised under ASan in CI).
  for (std::size_t cut = 0; cut < bytes.size(); ++cut)
    EXPECT_THROW(read_delta_bytes(bytes.substr(0, cut)), std::runtime_error)
        << "prefix of " << cut << " bytes parsed";
}

TEST(MaskDelta, StreamRejectsHeaderAndBitmapCorruption) {
  auto base = make_base(make_mlp, 0);
  const MaskDelta delta = tenant_delta(*base, make_mlp, 0, 3);
  ASSERT_EQ(delta.entries()[0].name, "fc1.weight");
  const std::string bytes = delta_stream(delta);

  const auto mutated = [&](std::size_t offset, char flip) {
    std::string m = bytes;
    m[offset] = static_cast<char>(m[offset] ^ flip);
    return m;
  };
  // Layout: magic u64 @0, version u32 @8, block/n/m @12, entry count @36,
  // then per entry: name (u64 length + chars), grid_rows,
  // base_blocks_per_row, kept_per_row (i64 each), kept_bits array.
  const std::size_t header = 8 + 4 + 24 + 8;
  const std::size_t name_field = 8 + delta.entries()[0].name.size();
  const std::size_t kpr_off = header + name_field + 16;
  const std::size_t bits_off = header + name_field + 24 + 8;

  // Wrong magic and unsupported version throw before any payload parse.
  EXPECT_THROW(read_delta_bytes(mutated(0, 0x5a)), std::runtime_error);
  EXPECT_THROW(read_delta_bytes(mutated(8, 0x01)), std::runtime_error);
  // kept_per_row no longer matching the bitmap popcounts.
  EXPECT_THROW(read_delta_bytes(mutated(kpr_off, 0x01)), std::runtime_error);
  // A flipped bitmap bit changes one row's popcount.
  EXPECT_THROW(read_delta_bytes(mutated(bits_off, 0x01)), std::runtime_error);

  // A set padding bit (past grid_rows * base_blocks_per_row) is rejected
  // even though no popcount changes.
  const EntryDelta& e = delta.entries()[0];
  const std::int64_t total = e.grid_rows * e.base_blocks_per_row;
  ASSERT_NE(total % 8, 0) << "fixture no longer exercises padding bits";
  const std::size_t last =
      bits_off + static_cast<std::size_t>((total + 7) / 8) - 1;
  EXPECT_THROW(read_delta_bytes(mutated(last, static_cast<char>(0x80))),
               std::runtime_error);
}

TEST(MaskDelta, StreamReadsVersion1WithoutTrailer) {
  // Deltas persisted before the integrity upgrade carry version 1 and no
  // CRC32C trailer. They still read — the fleet's existing shards stay
  // loadable — they just don't get corruption cover until re-saved.
  auto base = make_base(make_mlp, 0);
  const MaskDelta delta = tenant_delta(*base, make_mlp, 0, 4);
  std::string bytes = delta_stream(delta);
  bytes[8] = static_cast<char>(1);            // version u32 @8: 2 -> 1
  bytes.resize(bytes.size() - 4);             // drop the CRC trailer
  const MaskDelta back = read_delta_bytes(bytes);
  EXPECT_NO_THROW(back.validate(*base));
  // Re-writing emits the current version: byte-identical to the original
  // v2 stream, trailer included.
  EXPECT_EQ(delta_stream(back), delta_stream(delta));
}

TEST(MaskDelta, FromModelRejectsForeignBlocksAndNonUniformRows) {
  // Base prunes one block per row; a mask that keeps everything keeps
  // weight in blocks the base never stored — not representable.
  auto pruned_base = make_base(make_mlp, /*pruned_ranks=*/1);
  auto full = make_mlp();
  install_random_hybrid_masks(*full, kBlock, kN, kM, 0);
  EXPECT_THROW(MaskDelta::from_model(*pruned_base, *full),
               std::runtime_error);

  // Dropping a block in only one block-row violates CRISP uniformity.
  auto base = make_base(make_mlp, 0);
  auto lopsided = make_mlp();
  install_random_hybrid_masks(*lopsided, kBlock, kN, kM, 0);
  nn::Parameter* fc1 = nullptr;
  for (nn::Parameter* p : lopsided->prunable_parameters())
    if (p->name == "fc1.weight") fc1 = p;
  ASSERT_NE(fc1, nullptr);
  float* mask = fc1->mask.data();
  for (std::int64_t r = 0; r < kBlock; ++r)
    for (std::int64_t c = 0; c < kBlock; ++c) mask[r * 32 + c] = 0.0f;
  EXPECT_THROW(MaskDelta::from_model(*base, *lopsided), std::runtime_error);
}

TEST(MaskDelta, ValidateRejectsForeignBase) {
  auto mlp_base = make_base(make_mlp, 0);
  const MaskDelta delta = tenant_delta(*mlp_base, make_mlp, 0, 1);
  // Different architecture: no such entries.
  auto conv_base = make_base(make_convnet, 0);
  EXPECT_THROW(delta.validate(*conv_base), std::runtime_error);
  // Same architecture, different base pattern: blocks-per-row mismatch.
  auto pruned_base = make_base(make_mlp, 1);
  EXPECT_THROW(delta.validate(*pruned_base), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Execution parity: overlay (zero-copy) vs standalone (apply).

TEST(Overlay, BitwiseParityWithStandaloneAcrossThreads) {
  const ModelFactory factory = [] { return make_convnet(); };
  auto base = make_base(factory, /*pruned_ranks=*/1);
  auto delta = std::make_shared<const MaskDelta>(
      tenant_delta(*base, factory, 1, /*salt=*/3));
  // conv1 keeps 2 of its 3 surviving blocks per row; the fc head keeps 0
  // of 1 — the fully-restricted edge case rides along.
  std::vector<std::shared_ptr<const OverlayMatrix>> overlays;
  auto overlay = compile_overlay_model(base, delta, factory, &overlays);
  auto standalone = compile_standalone(*base, *delta, factory);
  ASSERT_FALSE(overlays.empty());
  for (const auto& o : overlays) EXPECT_TRUE(o->aliases_base_payload());

  ThreadGuard guard;
  // Batches on both sides of the CRISP block kernels' p = 8 switch.
  for (const std::int64_t batch : {1, 5, 8, 17}) {
    SCOPED_TRACE(batch);
    const Tensor x = random_sample(11, {batch, 3, 8, 8});
    Tensor first;
    for (const int threads : {1, 2, 8}) {
      kernels::set_num_threads(threads);
      const Tensor got = overlay->run(x);
      EXPECT_FLOAT_EQ(max_abs_diff(got, standalone->run(x)), 0.0f)
          << "overlay diverged from standalone at " << threads << " threads";
      if (threads == 1)
        first = got;
      else
        EXPECT_FLOAT_EQ(max_abs_diff(first, got), 0.0f)
            << "overlay output changed with the kernel thread count";
    }
  }
}

TEST(Overlay, Int8ParityIncludesScaleOverrides) {
  const ModelFactory factory = [] { return make_mlp(); };
  auto base = make_base(factory, 0, /*quantize=*/true);
  ASSERT_TRUE(base->packed().quantized());

  MaskDelta d = tenant_delta(*base, factory, 0, 7);
  // Per-block-row recalibration on fc1 (3 block-rows) — the cheap
  // per-tenant int8 tuning knob.
  d.set_scale_overrides("fc1.weight", {0.01f, 0.002f, 0.03f});
  auto delta = std::make_shared<const MaskDelta>(std::move(d));

  auto overlay = compile_overlay_model(base, delta, factory);
  auto standalone = compile_standalone(*base, *delta, factory);
  auto plain = std::make_shared<const MaskDelta>(
      tenant_delta(*base, factory, 0, 7));
  auto plain_overlay = compile_overlay_model(base, plain, factory);
  // Batches on both sides of the CRISP block kernels' p = 8 switch.
  for (const std::int64_t batch : {1, 5, 8, 17}) {
    SCOPED_TRACE(batch);
    const Tensor x = random_sample(13, {batch, 32});
    EXPECT_FLOAT_EQ(max_abs_diff(overlay->run(x), standalone->run(x)), 0.0f);

    // The overrides really bite: the same restriction without them serves
    // different values.
    EXPECT_GT(max_abs_diff(overlay->run(x), plain_overlay->run(x)), 0.0f);
  }
}

TEST(Overlay, Fp32PathIgnoresScaleOverrides) {
  const ModelFactory factory = [] { return make_mlp(); };
  auto base = make_base(factory, 0);  // fp32 payload present
  MaskDelta d = tenant_delta(*base, factory, 0, 4);
  d.set_scale_overrides("fc1.weight", {9.0f, 9.0f, 9.0f});
  auto with = std::make_shared<const MaskDelta>(std::move(d));
  auto without = std::make_shared<const MaskDelta>(
      tenant_delta(*base, factory, 0, 4));

  // Overrides are an int8-path knob; fp32 execution and the fp32
  // standalone artifact are identical with or without them.
  auto a = compile_overlay_model(base, with, factory);
  auto b = compile_overlay_model(base, without, factory);
  auto c = compile_standalone(*base, *with, factory);
  const Tensor x = random_sample(17, {3, 32});
  EXPECT_FLOAT_EQ(max_abs_diff(a->run(x), b->run(x)), 0.0f);
  EXPECT_FLOAT_EQ(max_abs_diff(a->run(x), c->run(x)), 0.0f);
}

// ---------------------------------------------------------------------------
// Store: registry, LRU cache, accounting.

TEST(Store, FleetScaleAccountingIdentity) {
  const ModelFactory factory = [] { return make_mlp(); };
  auto base = make_base(factory, 0);

  std::int64_t overhead = 0;
  {
    Store probe(base, factory);
    overhead = probe.compiled_overhead_bytes();
  }
  constexpr std::int64_t kResidents = 8;
  constexpr int kTenants = 2000;
  StoreOptions opts;
  opts.compiled_budget_bytes = kResidents * overhead;
  Store store(base, factory, opts);

  std::int64_t expected_deltas = 0;
  for (int i = 0; i < kTenants; ++i) {
    MaskDelta d =
        tenant_delta(*base, factory, 0, static_cast<std::uint64_t>(i));
    expected_deltas += d.delta_bytes();
    store.register_tenant(tenant_id(i), std::move(d));
  }
  EXPECT_EQ(store.tenant_count(), kTenants);

  // Serve the whole fleet through the budgeted cache.
  for (int i = 0; i < kTenants; ++i)
    ASSERT_NE(store.acquire(tenant_id(i)), nullptr) << i;

  // The accounting identity: one base + N deltas + K compiled residents.
  const ResidentBytes r = store.resident_bytes();
  EXPECT_EQ(r.base, base->base_bytes());
  EXPECT_EQ(r.deltas, expected_deltas);
  EXPECT_EQ(r.compiled, kResidents * overhead);
  EXPECT_EQ(r.total(), r.base + r.deltas + r.compiled);
  EXPECT_EQ(store.compiled_count(), kResidents);

  const StoreStats s = store.stats();
  EXPECT_EQ(s.misses, kTenants);
  EXPECT_EQ(s.compiles, kTenants);
  EXPECT_EQ(s.evictions, kTenants - kResidents);
  EXPECT_EQ(s.hits, 0);
  // Masks, not models: nothing in the cache copies the base payload...
  EXPECT_EQ(store.excess_base_copies(), 0);
  // ...so the resident fleet costs a small multiple of ONE base copy,
  // against kTenants copies for the naive artifact-per-tenant design.
  EXPECT_LT(r.total(), kTenants * base->base_bytes() / 5);

  // The hot tail hits the cache.
  ASSERT_NE(store.acquire(tenant_id(kTenants - 1)), nullptr);
  EXPECT_EQ(store.stats().hits, 1);
}

TEST(Store, TenantsShareOneBaseModel) {
  const ModelFactory factory = [] { return make_mlp(); };
  auto base = make_base(factory, 0);
  Store store(base, factory);
  for (int i = 1; i <= 2; ++i)
    store.register_tenant(tenant_id(i),
                          tenant_delta(*base, factory, 0,
                                       static_cast<std::uint64_t>(i)));
  auto t1 = store.acquire(tenant_id(1));
  auto t2 = store.acquire(tenant_id(2));
  ASSERT_NE(t1.get(), t2.get());
  // One model, one kernel table per tenant: a tenant compile substitutes
  // kernels, it never clones the base model.
  EXPECT_EQ(&t1->model(), &t2->model());
  EXPECT_EQ(&t1->model(), &store.acquire_base()->model());
  EXPECT_EQ(store.excess_base_copies(), 0);
}

TEST(Store, LruEvictionAndEvictedArtifactStaysServable) {
  const ModelFactory factory = [] { return make_mlp(); };
  auto base = make_base(factory, 0);
  std::int64_t overhead = 0;
  {
    Store probe(base, factory);
    overhead = probe.compiled_overhead_bytes();
  }
  StoreOptions opts;
  opts.compiled_budget_bytes = 2 * overhead;
  Store store(base, factory, opts);
  for (int i = 1; i <= 3; ++i)
    store.register_tenant(tenant_id(i),
                          tenant_delta(*base, factory, 0,
                                       static_cast<std::uint64_t>(i)));

  auto m1 = store.acquire("t1");
  auto m1_again = store.acquire("t1");
  EXPECT_EQ(m1.get(), m1_again.get());  // cache hit returns the resident
  EXPECT_EQ(store.stats().hits, 1);

  store.acquire("t2");
  store.acquire("t3");  // budget = 2 residents: t1 is the LRU victim
  EXPECT_EQ(store.compiled_count(), 2);
  EXPECT_EQ(store.stats().evictions, 1);

  // Eviction only dropped the cache's reference; the caller's artifact
  // still serves, and a re-acquire compiles an equivalent fresh one.
  const Tensor x = random_sample(3, {2, 32});
  const Tensor before = m1->run(x);
  auto m1_fresh = store.acquire("t1");
  EXPECT_NE(m1.get(), m1_fresh.get());
  EXPECT_FLOAT_EQ(max_abs_diff(before, m1_fresh->run(x)), 0.0f);
  EXPECT_EQ(store.stats().misses, 4);
}

TEST(Store, ReplaceInvalidatesCompiledAndRemoveDropsTenant) {
  const ModelFactory factory = [] { return make_mlp(); };
  auto base = make_base(factory, 0);
  Store store(base, factory);

  store.register_tenant("t1", tenant_delta(*base, factory, 0, 1));
  ASSERT_NE(store.acquire("t1"), nullptr);
  EXPECT_EQ(store.compiled_count(), 1);

  // Re-registering with a different personalization must invalidate the
  // cached artifact — the next acquire serves the new delta.
  store.register_tenant("t1", tenant_delta(*base, factory, 0, 2));
  EXPECT_EQ(store.compiled_count(), 0);
  EXPECT_EQ(store.tenant_count(), 1);
  auto fresh = store.acquire("t1");
  auto want = compile_standalone(*base, tenant_delta(*base, factory, 0, 2),
                                 factory);
  const Tensor x = random_sample(5, {2, 32});
  EXPECT_FLOAT_EQ(max_abs_diff(fresh->run(x), want->run(x)), 0.0f);

  store.remove_tenant("t1");
  EXPECT_FALSE(store.has_tenant("t1"));
  EXPECT_EQ(store.compiled_count(), 0);
  EXPECT_EQ(store.resident_bytes().deltas, 0);
  EXPECT_THROW(store.acquire("t1"), std::runtime_error);
  EXPECT_THROW(store.remove_tenant("t1"), std::runtime_error);

  // Registration validates against the base: a foreign-architecture delta
  // never enters the registry.
  auto conv_base = make_base(make_convnet, 0);
  EXPECT_THROW(
      store.register_tenant("bad", tenant_delta(*conv_base, make_convnet, 0, 1)),
      std::runtime_error);
}

TEST(Store, ConcurrentAcquiresConvergeToOneCachedArtifact) {
  const ModelFactory factory = [] { return make_mlp(); };
  auto base = make_base(factory, 0);
  Store store(base, factory);
  store.register_tenant("t1", tenant_delta(*base, factory, 0, 1));

  constexpr int kThreads = 4;
  std::vector<std::shared_ptr<const serve::CompiledModel>> got(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back(
        [&, i] { got[static_cast<std::size_t>(i)] = store.acquire("t1"); });
  for (auto& t : threads) t.join();

  // Whoever wins the compile race, every caller ends up serving the one
  // cached artifact.
  for (const auto& m : got) {
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m.get(), got[0].get());
  }
  EXPECT_EQ(store.compiled_count(), 1);
  EXPECT_EQ(store.excess_base_copies(), 0);
}

// ---------------------------------------------------------------------------
// Router: fleet traffic onto a budgeted engine pool.

TEST(Router, ColdMissCompilesAndServes) {
  const ModelFactory factory = [] { return make_mlp(); };
  auto base = make_base(factory, 0);
  auto store = std::make_shared<Store>(base, factory);
  store->register_tenant("t1", tenant_delta(*base, factory, 0, 1));
  Router router(store);

  EXPECT_THROW(router.submit("ghost", make_request(random_sample(1, {32}))),
               std::runtime_error);

  const Tensor sample = random_sample(21, {32});
  serve::Response r = router.submit("t1", make_request(sample)).get();
  ASSERT_EQ(r.status, serve::Response::Status::kOk);
  EXPECT_FLOAT_EQ(
      max_abs_diff(r.output, serial_reference(*store->acquire("t1"), sample)),
      0.0f);

  // The second request rides the now-resident engine.
  serve::Response hot = router.submit("t1", make_request(sample)).get();
  EXPECT_EQ(hot.status, serve::Response::Status::kOk);

  const RouterStats s = router.stats();
  EXPECT_EQ(s.submitted, 2);
  EXPECT_EQ(s.cold_misses, 1);
  EXPECT_EQ(s.hot, 1);
  EXPECT_EQ(s.engines_built, 1);
  EXPECT_EQ(router.resident_engines(), 1);

  router.shutdown();
  EXPECT_THROW(router.submit("t1", make_request(random_sample(2, {32}))),
               std::runtime_error);
}

TEST(Router, TenantAffinityAndLruRetirement) {
  const ModelFactory factory = [] { return make_mlp(); };
  auto base = make_base(factory, 0);
  auto store = std::make_shared<Store>(base, factory);
  for (int i = 1; i <= 3; ++i)
    store->register_tenant(tenant_id(i),
                           tenant_delta(*base, factory, 0,
                                        static_cast<std::uint64_t>(i)));
  RouterOptions opts;
  opts.max_engines = 2;
  Router router(store, opts);

  const auto serve_one = [&](const std::string& id, std::uint64_t seed) {
    const Tensor sample = random_sample(seed, {32});
    serve::Response r = router.submit(id, make_request(sample)).get();
    ASSERT_EQ(r.status, serve::Response::Status::kOk) << id;
    EXPECT_FLOAT_EQ(
        max_abs_diff(r.output, serial_reference(*store->acquire(id), sample)),
        0.0f)
        << id;
  };

  serve_one("t1", 31);
  serve_one("t2", 32);
  serve_one("t3", 33);  // past the cap: t1's engine (LRU) is retired
  EXPECT_EQ(router.resident_engines(), 2);
  serve_one("t1", 34);  // cold again
  serve_one("t3", 35);  // still resident: hot

  const RouterStats s = router.stats();
  EXPECT_EQ(s.cold_misses, 4);
  EXPECT_EQ(s.hot, 1);
  EXPECT_EQ(s.engines_built, 4);
  EXPECT_EQ(s.engines_retired, 2);
  EXPECT_EQ(router.resident_engines(), 2);
}

TEST(Router, DeadlineAgesAcrossColdCompile) {
  const ModelFactory factory = [] { return make_mlp(); };
  auto base = make_base(factory, 0);
  auto store = std::make_shared<Store>(base, factory);
  store->register_tenant("doomed", tenant_delta(*base, factory, 0, 1));
  store->register_tenant("patient", tenant_delta(*base, factory, 0, 2));
  Router router(store);

  // A 1 µs budget cannot survive an engine build: the deadline lapses in
  // the cold queue and the router sheds it exactly as an engine queue
  // would — kExpired, never served late.
  serve::Response doomed =
      router
          .submit("doomed", make_request(random_sample(41, {32}),
                                         serve::Priority::kStandard,
                                         std::chrono::microseconds(1)))
          .get();
  EXPECT_EQ(doomed.status, serve::Response::Status::kExpired);
  EXPECT_GT(doomed.stats.queue_time.count(), 0);

  // A generous budget rides through the same compile.
  serve::Response patient =
      router
          .submit("patient", make_request(random_sample(42, {32}),
                                          serve::Priority::kStandard,
                                          std::chrono::minutes(1)))
          .get();
  EXPECT_EQ(patient.status, serve::Response::Status::kOk);

  const RouterStats s = router.stats();
  EXPECT_EQ(s.cold_expired, 1);
  EXPECT_EQ(s.cold_misses, 2);
}

TEST(Router, ColdQueueOverflowRejects) {
  // A first compile that fails pins the compiler thread in its retry
  // backoff long enough to overflow the bounded cold queue
  // deterministically; the retry then serves the parked request.
  auto base = make_base(make_mlp, 0);
  auto store = std::make_shared<Store>(base, make_mlp);
  store->register_tenant("t1", tenant_delta(*base, make_mlp, 0, 1));
  RouterOptions opts;
  opts.cold_queue_depth = 1;
  opts.compile_retry_backoff = std::chrono::milliseconds(100);
  Router router(store, opts);

  crisp::testing::arm_fault("store.compile", /*nth=*/0, /*times=*/1);
  auto first = router.submit("t1", make_request(random_sample(51, {32})));
  auto second = router.submit("t1", make_request(random_sample(52, {32})));
  serve::Response r2 = second.get();  // resolves immediately, never parked
  EXPECT_EQ(r2.status, serve::Response::Status::kRejected);
  EXPECT_EQ(first.get().status, serve::Response::Status::kOk);
  crisp::testing::reset_faults();

  const RouterStats s = router.stats();
  EXPECT_EQ(s.cold_rejected, 1);
  EXPECT_EQ(s.submitted, 1);  // only the parked request was accepted
}

TEST(Router, ShutdownCancelsParkedColdRequests) {
  auto base = make_base(make_mlp, 0);
  auto store = std::make_shared<Store>(base, make_mlp);
  store->register_tenant("t1", tenant_delta(*base, make_mlp, 0, 1));
  store->register_tenant("t2", tenant_delta(*base, make_mlp, 0, 2));
  RouterOptions opts;
  opts.compile_retry_backoff = std::chrono::seconds(30);
  Router router(store, opts);

  // t1's compile is mid-build (its first attempt failed; the retry waits
  // out a backoff only shutdown interrupts) and t2's has not started when
  // shutdown lands. Shutdown is prompt: every still-parked request
  // resolves as kCancelled (only work that already reached an engine
  // drains), and the compiler discards the half-built engine instead of
  // serving with it.
  crisp::testing::arm_fault("store.compile", /*nth=*/0, /*times=*/1);
  auto building = router.submit("t1", make_request(random_sample(61, {32})));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  auto parked = router.submit("t2", make_request(random_sample(62, {32})));
  router.shutdown();
  crisp::testing::reset_faults();

  EXPECT_EQ(building.get().status, serve::Response::Status::kCancelled);
  serve::Response r = parked.get();
  EXPECT_EQ(r.status, serve::Response::Status::kCancelled);
  EXPECT_GT(r.stats.queue_time.count(), 0);
  EXPECT_EQ(router.stats().cancelled, 2);
}

TEST(Router, ConcurrentProducersAcrossTenantsAllServed) {
  const ModelFactory factory = [] { return make_mlp(); };
  auto base = make_base(factory, 0);
  auto store = std::make_shared<Store>(base, factory);
  constexpr int kTenantCount = 3, kPerTenant = 8;
  for (int t = 0; t < kTenantCount; ++t)
    store->register_tenant(tenant_id(t),
                           tenant_delta(*base, factory, 0,
                                        static_cast<std::uint64_t>(t)));
  RouterOptions opts;
  opts.max_engines = kTenantCount;
  Router router(store, opts);

  std::vector<std::vector<std::future<serve::Response>>> futures(
      kTenantCount);
  std::vector<std::thread> producers;
  for (int t = 0; t < kTenantCount; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kPerTenant; ++i)
        futures[static_cast<std::size_t>(t)].push_back(router.submit(
            tenant_id(t),
            make_request(random_sample(
                static_cast<std::uint64_t>(9000 + t * 100 + i), {32}))));
    });
  }
  for (auto& t : producers) t.join();

  for (int t = 0; t < kTenantCount; ++t) {
    auto compiled = store->acquire(tenant_id(t));
    for (int i = 0; i < kPerTenant; ++i) {
      serve::Response r =
          futures[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)]
              .get();
      ASSERT_EQ(r.status, serve::Response::Status::kOk)
          << "tenant " << t << " request " << i;
      const Tensor want = serial_reference(
          *compiled, random_sample(
                         static_cast<std::uint64_t>(9000 + t * 100 + i), {32}));
      // Engine batching may coalesce same-tenant requests; the packed
      // Linear kernel's batch tail can differ in the last bit.
      EXPECT_LE(max_abs_diff(r.output, want), 1e-4f)
          << "tenant " << t << " request " << i;
    }
  }
  const RouterStats s = router.stats();
  EXPECT_EQ(s.submitted, kTenantCount * kPerTenant);
  EXPECT_EQ(s.hot + s.cold_misses, s.submitted);
  EXPECT_EQ(s.engines_built, kTenantCount);
  EXPECT_EQ(s.engines_retired, 0);
  EXPECT_EQ(store->excess_base_copies(), 0);
}

TEST(Router, RefreshTenantHotSwapsResidentEngine) {
  const ModelFactory factory = [] { return make_mlp(); };
  auto base = make_base(factory, 0);
  auto store = std::make_shared<Store>(base, factory);
  store->register_tenant("t1", tenant_delta(*base, factory, 0, 1));
  Router router(store);

  // Make t1 resident and verify it serves the original personalization.
  const Tensor sample = random_sample(41, {32});
  auto old_artifact = store->acquire("t1");
  serve::Response r0 = router.submit("t1", make_request(sample)).get();
  ASSERT_EQ(r0.status, serve::Response::Status::kOk);
  EXPECT_LE(max_abs_diff(r0.output, serial_reference(*old_artifact, sample)),
            1e-4f);

  // A changed personalization: register_tenant with a different delta
  // invalidates the Store's compiled cache, refresh_tenant pushes the
  // recompiled artifact into the live engine — no restart, no cold miss.
  store->register_tenant("t1", tenant_delta(*base, factory, 0, 2));
  EXPECT_TRUE(router.refresh_tenant("t1"));
  auto new_artifact = store->acquire("t1");
  const Tensor want_new = serial_reference(*new_artifact, sample);
  ASSERT_GT(max_abs_diff(serial_reference(*old_artifact, sample), want_new),
            0.0f);  // the two deltas really differ on this sample

  serve::Response r1 = router.submit("t1", make_request(sample)).get();
  ASSERT_EQ(r1.status, serve::Response::Status::kOk);
  EXPECT_LE(max_abs_diff(r1.output, want_new), 1e-4f);

  const RouterStats s = router.stats();
  EXPECT_EQ(s.refreshed, 1);
  EXPECT_EQ(s.hot, 1);           // the post-swap submit was a hot hit,
  EXPECT_EQ(s.cold_misses, 1);   // not a rebuild
  EXPECT_EQ(s.engines_built, 1);

  // Non-resident tenant: refresh is a no-op (next cold miss compiles the
  // fresh delta anyway). Unregistered tenant: throws like submit does.
  store->register_tenant("t2", tenant_delta(*base, factory, 0, 3));
  EXPECT_FALSE(router.refresh_tenant("t2"));
  EXPECT_THROW(router.refresh_tenant("ghost"), std::runtime_error);
  EXPECT_EQ(router.stats().refreshed, 1);

  router.shutdown();
  EXPECT_THROW(router.refresh_tenant("t1"), std::runtime_error);
}

// One tenant's deep backlog must not delay another tenant's reply: a cold
// request for B completes while A still has ~1000x B's work queued, both
// when B's engine build retires A's engine (cap 1: the retired engine
// drains only after B's parked request is flushed) and when both stay
// resident (cap 4: each reply completes on its own engine's worker, not
// in submission order across tenants).
TEST(Router, SlowTenantDoesNotDelayAnother) {
  auto base = make_base(make_convnet, 0);
  auto store = std::make_shared<Store>(base, make_convnet);
  constexpr int kBacklog = 1000;

  for (const std::int64_t cap : {1, 4}) {
    SCOPED_TRACE("max_engines = " + std::to_string(cap));
    // Fresh tenants per round, so neither is already compiled in the Store.
    const std::string a = "A" + std::to_string(cap);
    const std::string b = "B" + std::to_string(cap);
    store->register_tenant(a, tenant_delta(*base, make_convnet, 0, 1));
    store->register_tenant(b, tenant_delta(*base, make_convnet, 0, 2));
    RouterOptions opts;
    opts.max_engines = cap;
    opts.engine.max_batch = 1;  // one forward per request: work = count
    opts.engine.queue_depth = 2 * kBacklog;
    opts.engine.flush_timeout = std::chrono::microseconds(0);
    opts.engine.thread_budget = 1;  // forwards stay on each engine's worker
    opts.cold_queue_depth = 2 * kBacklog;
    opts.compile_retry_backoff = std::chrono::milliseconds(100);
    Router router(store, opts);

    // A's first compile fails once, so its whole backlog parks behind the
    // retry backoff and reaches A's engine through the cold flush.
    crisp::testing::arm_fault("store.compile", /*nth=*/0, /*times=*/1);
    const Tensor sample = random_sample(90, {3, 32, 32});
    std::vector<std::future<serve::Response>> backlog;
    for (int i = 0; i < kBacklog; ++i)
      backlog.push_back(router.submit(a, make_request(sample)));
    auto cold = router.submit(b, make_request(sample));

    ASSERT_EQ(cold.get().status, serve::Response::Status::kOk);
    EXPECT_NE(backlog.back().wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "B's reply waited for A's whole backlog";
    for (auto& f : backlog)
      EXPECT_EQ(f.get().status, serve::Response::Status::kOk);
    crisp::testing::reset_faults();
    EXPECT_EQ(router.stats().compile_retries, 1);
  }
}

// ---------------------------------------------------------------------------
// Graceful degradation: compile failures, quarantine, base-model fallback.

TEST(Router, CompileFailureRetriesOnceThenServes) {
  const ModelFactory factory = [] { return make_mlp(); };
  auto base = make_base(factory, 0);
  auto store = std::make_shared<Store>(base, factory);
  store->register_tenant("t1", tenant_delta(*base, factory, 0, 1));
  RouterOptions opts;
  opts.compile_retry_backoff = std::chrono::milliseconds(1);
  Router router(store, opts);

  // The first compile attempt throws (injected); the bounded-backoff
  // retry succeeds. The caller sees a plain kOk, fully personalized — a
  // transient failure never surfaces.
  crisp::testing::arm_fault("store.compile", /*nth=*/0, /*times=*/1);
  const Tensor sample = random_sample(71, {32});
  serve::Response r = router.submit("t1", make_request(sample)).get();
  crisp::testing::reset_faults();
  ASSERT_EQ(r.status, serve::Response::Status::kOk);
  EXPECT_LE(
      max_abs_diff(r.output, serial_reference(*store->acquire("t1"), sample)),
      1e-4f);

  const RouterStats s = router.stats();
  EXPECT_EQ(s.compile_retries, 1);
  EXPECT_EQ(s.quarantined, 0);
  EXPECT_EQ(s.degraded, 0);
  EXPECT_EQ(s.engines_built, 1);
}

TEST(Router, DoubleCompileFailureQuarantinesAndServesDegraded) {
  const ModelFactory factory = [] { return make_mlp(); };
  auto base = make_base(factory, 0);
  auto store = std::make_shared<Store>(base, factory);
  store->register_tenant("t1", tenant_delta(*base, factory, 0, 1));
  store->register_tenant("t2", tenant_delta(*base, factory, 0, 2));
  RouterOptions opts;
  opts.compile_retry_backoff = std::chrono::milliseconds(1);
  Router router(store, opts);

  // Both compile attempts fail: t1 is quarantined — but its parked
  // request still completes, served from the shared base model and
  // flagged kDegraded with a real output. Never a broken future.
  crisp::testing::arm_fault("store.compile", 0, /*times=*/2);
  const Tensor sample = random_sample(72, {32});
  serve::Response r = router.submit("t1", make_request(sample)).get();
  ASSERT_EQ(r.status, serve::Response::Status::kDegraded);
  ASSERT_FALSE(r.output.empty());
  EXPECT_LE(max_abs_diff(r.output,
                         serial_reference(*store->acquire_base(), sample)),
            1e-4f);

  // Subsequent submits skip the doomed compile and go straight to the
  // fallback engine...
  serve::Response again = router.submit("t1", make_request(sample)).get();
  EXPECT_EQ(again.status, serve::Response::Status::kDegraded);
  // ...while other tenants are untouched by the quarantine.
  crisp::testing::reset_faults();
  serve::Response healthy = router.submit("t2", make_request(sample)).get();
  EXPECT_EQ(healthy.status, serve::Response::Status::kOk);

  const RouterStats s = router.stats();
  EXPECT_EQ(s.compile_retries, 1);
  EXPECT_EQ(s.quarantined, 1);
  EXPECT_EQ(s.degraded, 2);
  EXPECT_EQ(s.engines_built, 1);  // only t2's; the fallback isn't a tenant
  EXPECT_EQ(router.resident_engines(), 1);

  // refresh_tenant is the way back: the delta compiles now, so the
  // quarantine lifts (no resident engine to swap -> false) and the next
  // submit is a normal cold miss serving the personalization again.
  EXPECT_FALSE(router.refresh_tenant("t1"));
  serve::Response back = router.submit("t1", make_request(sample)).get();
  ASSERT_EQ(back.status, serve::Response::Status::kOk);
  EXPECT_LE(max_abs_diff(back.output,
                         serial_reference(*store->acquire("t1"), sample)),
            1e-4f);
  EXPECT_EQ(router.stats().quarantined, 1);  // historical count, not current
}

TEST(Router, QuarantineUnderConcurrentLoadCompletesEveryFuture) {
  const ModelFactory factory = [] { return make_mlp(); };
  auto base = make_base(factory, 0);
  auto store = std::make_shared<Store>(base, factory);
  store->register_tenant("bad", tenant_delta(*base, factory, 0, 1));
  store->register_tenant("good", tenant_delta(*base, factory, 0, 2));
  RouterOptions opts;
  opts.compile_retry_backoff = std::chrono::milliseconds(1);
  Router router(store, opts);

  // Quarantine "bad" deterministically first, then hammer both tenants
  // from concurrent producers. The contract under test: every future
  // completes with a status — zero exceptions out of .get(), degraded and
  // healthy traffic interleaved freely (TSan covers the completion path).
  crisp::testing::arm_fault("store.compile", 0, /*times=*/2);
  serve::Response first =
      router.submit("bad", make_request(random_sample(80, {32}))).get();
  crisp::testing::reset_faults();
  ASSERT_EQ(first.status, serve::Response::Status::kDegraded);

  constexpr int kThreads = 4, kPerThread = 8;
  std::vector<std::vector<std::future<serve::Response>>> futures(kThreads);
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      const std::string id = (t % 2 == 0) ? "bad" : "good";
      for (int i = 0; i < kPerThread; ++i)
        futures[static_cast<std::size_t>(t)].push_back(router.submit(
            id, make_request(random_sample(
                    static_cast<std::uint64_t>(8000 + t * 100 + i), {32}))));
    });
  }
  for (auto& t : producers) t.join();

  std::int64_t degraded = 0, ok = 0;
  for (int t = 0; t < kThreads; ++t)
    for (auto& f : futures[static_cast<std::size_t>(t)]) {
      serve::Response r = f.get();  // must never throw
      if (r.status == serve::Response::Status::kDegraded) {
        EXPECT_FALSE(r.output.empty());
        ++degraded;
      } else {
        ASSERT_EQ(r.status, serve::Response::Status::kOk);
        ++ok;
      }
    }
  EXPECT_EQ(degraded, (kThreads / 2) * kPerThread);  // all of "bad"'s
  EXPECT_EQ(ok, (kThreads / 2) * kPerThread);        // all of "good"'s

  const RouterStats s = router.stats();
  EXPECT_EQ(s.quarantined, 1);
  EXPECT_EQ(s.degraded, degraded + 1);  // + the quarantining request
  EXPECT_EQ(s.submitted, kThreads * kPerThread + 1);
}

}  // namespace
}  // namespace crisp::tenant
