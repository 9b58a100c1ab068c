// Deployment-artifact tests: PackedModel pack/save/load/unpack and packed
// execution (serve::CompiledModel's kernel table) against the dense masked
// reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "core/block_pruning.h"
#include "core/pruner.h"
#include "data/class_pattern.h"
#include "deploy/packed_model.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/models/common.h"
#include "nn/pooling.h"
#include "nn/trainer.h"
#include "serve/compiled_model.h"

namespace crisp::deploy {
namespace {

/// Temp-file path helper; files are tiny and removed by each test.
std::string temp_path(const char* stem) {
  return std::string(::testing::TempDir()) + stem;
}

/// Hybrid-pattern masks come from the shared core helper so every suite
/// exercises the exact invariant the CRISP pruner guarantees.
using core::install_random_hybrid_masks;

/// Small conv net with one grouped conv (dense-only) and a classifier.
std::unique_ptr<nn::Sequential> make_convnet(bool grouped_prunable = false) {
  Rng rng(7);
  auto model = std::make_unique<nn::Sequential>("testnet");
  nn::Conv2dSpec c1;
  c1.in_channels = 3;
  c1.out_channels = 16;
  c1.kernel = 3;
  c1.padding = 1;
  model->emplace<nn::Conv2d>("conv1", c1, rng);
  model->emplace<nn::ReLU>("relu1");
  nn::Conv2dSpec c2;
  c2.in_channels = 16;
  c2.out_channels = 16;
  c2.kernel = 3;
  c2.padding = 1;
  c2.groups = grouped_prunable ? 2 : 1;
  model->emplace<nn::Conv2d>("conv2", c2, rng);
  model->emplace<nn::ReLU>("relu2");
  model->emplace<nn::GlobalAvgPool>("gap");
  model->emplace<nn::Flatten>("flatten");
  model->emplace<nn::Linear>("fc", 16, 8, rng);
  return model;
}

TEST(PackedModel, PackEncodesEveryMaskedPrunable) {
  auto model = make_convnet();
  install_random_hybrid_masks(*model, 8, 2, 4, 1);
  const PackedModel packed = PackedModel::pack(*model, 8, 2, 4);

  std::int64_t masked = 0;
  for (nn::Parameter* p : model->prunable_parameters())
    if (p->has_mask()) ++masked;
  EXPECT_EQ(static_cast<std::int64_t>(packed.entries().size()), masked);
  EXPECT_GT(masked, 0);

  // Everything else is carried dense — biases plus any unmasked parameter.
  for (const auto& [name, tensor] : packed.dense_state())
    EXPECT_EQ(packed.find(name), nullptr) << name << " both packed and dense";
}

TEST(PackedModel, PackedEntriesDecodeToEffectiveWeights) {
  auto model = make_convnet();
  install_random_hybrid_masks(*model, 8, 2, 4, 1);
  const PackedModel packed = PackedModel::pack(*model, 8, 2, 4);
  for (nn::Parameter* p : model->prunable_parameters()) {
    const PackedEntry* e = packed.find(p->name);
    ASSERT_NE(e, nullptr);
    const Tensor decoded = e->matrix.decode();
    const Tensor eff = p->effective_value();
    EXPECT_FLOAT_EQ(max_abs_diff(decoded, eff.reshaped(decoded.shape())), 0.0f)
        << p->name;
  }
}

TEST(PackedModel, PackRejectsNonHybridMasks) {
  auto model = make_convnet();
  // Dense masks (all ones) violate nothing... so corrupt one group: three
  // survivors in a 2:4 group must be rejected by the encoder.
  for (nn::Parameter* p : model->prunable_parameters()) {
    p->ensure_mask();
    break;
  }
  EXPECT_THROW(PackedModel::pack(*model, 8, 2, 4), std::runtime_error);
}

TEST(PackedModel, StatsAccounting) {
  auto model = make_convnet();
  install_random_hybrid_masks(*model, 8, 2, 4, 1);
  const PackedModel packed = PackedModel::pack(*model, 8, 2, 4);
  const PackedStats s = packed.stats();

  std::int64_t dense_bits = 0;
  for (const auto& [name, t] : model->state_dict()) {
    (void)name;
    dense_bits += t.numel() * 32;
  }
  EXPECT_EQ(s.model_dense_bits, dense_bits);
  EXPECT_GT(s.packed_metadata_bits, 0);
  EXPECT_GT(s.packed_payload_bits, 0);
  EXPECT_LT(s.compression(), 1.0);  // hybrid sparsity must shrink the model

  std::int64_t payload = 0;
  for (const PackedEntry& e : packed.entries())
    payload += e.matrix.payload_bits();
  EXPECT_EQ(s.packed_payload_bits, payload);
}

TEST(PackedModel, SaveLoadRoundTrip) {
  auto model = make_convnet();
  install_random_hybrid_masks(*model, 8, 2, 4, 1);
  const PackedModel packed = PackedModel::pack(*model, 8, 2, 4);
  const std::string path = temp_path("packed_roundtrip.bin");
  packed.save(path);
  const PackedModel loaded = PackedModel::load(path);
  std::remove(path.c_str());

  EXPECT_EQ(loaded.n(), 2);
  EXPECT_EQ(loaded.m(), 4);
  EXPECT_EQ(loaded.block(), 8);
  ASSERT_EQ(loaded.entries().size(), packed.entries().size());
  for (std::size_t i = 0; i < packed.entries().size(); ++i) {
    const PackedEntry& a = packed.entries()[i];
    const PackedEntry& b = loaded.entries()[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.shape, b.shape);
    EXPECT_FLOAT_EQ(max_abs_diff(a.matrix.decode(), b.matrix.decode()), 0.0f);
    EXPECT_EQ(a.matrix.metadata_bits(), b.matrix.metadata_bits());
  }
  ASSERT_EQ(loaded.dense_state().size(), packed.dense_state().size());
  for (const auto& [name, tensor] : packed.dense_state()) {
    const auto it = loaded.dense_state().find(name);
    ASSERT_NE(it, loaded.dense_state().end()) << name;
    EXPECT_FLOAT_EQ(max_abs_diff(tensor, it->second), 0.0f) << name;
  }
}

TEST(PackedModel, QuantizePayloadsShrinksAndRoundTrips) {
  auto model = make_convnet();
  install_random_hybrid_masks(*model, 8, 2, 4, 1);
  PackedModel packed = PackedModel::pack(*model, 8, 2, 4);
  const std::int64_t fp32_payload = packed.stats().packed_payload_bits;
  ASSERT_FALSE(packed.quantized());

  // Keep-fp32 mode carries both payloads (bits grow); dropping fp32 takes
  // the payload to 8 bits per slot + one scale per block-row.
  PackedModel both = packed;
  both.quantize_payloads(/*keep_fp32=*/true);
  EXPECT_TRUE(both.quantized());
  EXPECT_GT(both.stats().packed_payload_bits, fp32_payload);
  for (const PackedEntry& e : both.entries()) EXPECT_TRUE(e.matrix.has_fp32());

  packed.quantize_payloads();
  EXPECT_TRUE(packed.quantized());
  EXPECT_LT(packed.stats().packed_payload_bits, fp32_payload / 2);
  EXPECT_LT(packed.stats().compression(), 1.0);

  const std::string path = temp_path("packed_quantized.bin");
  packed.save(path);
  const PackedModel loaded = PackedModel::load(path);
  std::remove(path.c_str());
  EXPECT_TRUE(loaded.quantized());
  ASSERT_EQ(loaded.entries().size(), packed.entries().size());
  for (std::size_t i = 0; i < packed.entries().size(); ++i) {
    EXPECT_FALSE(loaded.entries()[i].matrix.has_fp32());
    EXPECT_FLOAT_EQ(max_abs_diff(loaded.entries()[i].matrix.decode(),
                                 packed.entries()[i].matrix.decode()),
                    0.0f);
  }

  // Unpacking the int8 artifact restores weights within the per-block-row
  // scale bound of the original effective values, and reinstalls masks.
  auto fresh = make_convnet();
  loaded.unpack_into(*fresh);
  const PackedModel repacked = PackedModel::pack(*model, 8, 2, 4);
  for (nn::Parameter* p : fresh->prunable_parameters()) {
    const PackedEntry* e = loaded.find(p->name);
    if (e == nullptr) continue;
    EXPECT_TRUE(p->has_mask()) << p->name;
    float max_scale = 0.0f;
    for (const float s : e->matrix.quantized_payload().scales)
      max_scale = std::max(max_scale, s);
    const PackedEntry* orig = repacked.find(p->name);
    ASSERT_NE(orig, nullptr);
    EXPECT_LE(max_abs_diff(p->effective_value(),
                           orig->matrix.decode().reshaped(p->value.shape())),
              0.5f * max_scale * 1.0001f)
        << p->name;
  }
}

TEST(PackedModel, FullyPrunedEntryDoesNotBlockQuantizedPredicates) {
  // A parameter whose mask zeroes everything encodes with zero slots;
  // there is nothing to quantize in it, and it must not pin the whole
  // artifact's quantized()/serves_int8() to false.
  auto model = make_convnet();
  install_random_hybrid_masks(*model, 8, 2, 4, 1);
  nn::Parameter* first = model->prunable_parameters().front();
  first->ensure_mask();
  for (std::int64_t i = 0; i < first->mask.numel(); ++i) first->mask[i] = 0.0f;

  PackedModel packed = PackedModel::pack(*model, 8, 2, 4);
  const PackedEntry* pruned_entry = packed.find(first->name);
  ASSERT_NE(pruned_entry, nullptr);
  ASSERT_EQ(pruned_entry->matrix.slot_count(), 0);

  packed.quantize_payloads();
  EXPECT_TRUE(packed.quantized());
  EXPECT_TRUE(packed.serves_int8());
}

TEST(PackedModel, LoadRejectsGarbageAndTruncation) {
  const std::string garbage = temp_path("packed_garbage.bin");
  {
    std::ofstream os(garbage, std::ios::binary);
    os << "definitely not a packed model";
  }
  EXPECT_THROW(PackedModel::load(garbage), std::runtime_error);
  std::remove(garbage.c_str());

  auto model = make_convnet();
  install_random_hybrid_masks(*model, 8, 2, 4, 1);
  const std::string path = temp_path("packed_trunc.bin");
  PackedModel::pack(*model, 8, 2, 4).save(path);
  std::ifstream is(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(is)),
                          std::istreambuf_iterator<char>());
  is.close();
  const std::string cut = temp_path("packed_cut.bin");
  {
    std::ofstream os(cut, std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_THROW(PackedModel::load(cut), std::runtime_error);
  std::remove(path.c_str());
  std::remove(cut.c_str());
  EXPECT_THROW(PackedModel::load(temp_path("no_such_file.bin")),
               std::runtime_error);
}

TEST(PackedModel, LoadRejectsWrongMagicAndVersion) {
  auto model = make_convnet();
  install_random_hybrid_masks(*model, 8, 2, 4, 1);
  const std::string path = temp_path("packed_header.bin");
  PackedModel::pack(*model, 8, 2, 4).save(path);
  std::ifstream is(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(is)),
                          std::istreambuf_iterator<char>());
  is.close();
  std::remove(path.c_str());
  ASSERT_GT(bytes.size(), 12u);  // u64 magic + u32 version

  const auto write_mutated = [&](std::size_t offset, char flip) {
    std::vector<char> mutated = bytes;
    mutated[offset] = static_cast<char>(mutated[offset] ^ flip);
    const std::string p = temp_path("packed_mutated.bin");
    std::ofstream os(p, std::ios::binary);
    os.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    return p;
  };

  // A foreign magic and a future version must both throw cleanly — never
  // attempt to parse a payload the header disowns.
  const std::string bad_magic = write_mutated(0, 0x7f);
  EXPECT_THROW(PackedModel::load(bad_magic), std::runtime_error);
  std::remove(bad_magic.c_str());
  const std::string bad_version = write_mutated(8, 0x40);
  EXPECT_THROW(PackedModel::load(bad_version), std::runtime_error);
  std::remove(bad_version.c_str());
}

TEST(PackedModel, V3TrailerVerifiesAndCatchesSilentCorruption) {
  auto model = make_convnet();
  install_random_hybrid_masks(*model, 8, 2, 4, 1);
  const std::string path = temp_path("packed_v3.bin");
  PackedModel::pack(*model, 8, 2, 4).save(path);

  const PackedModel loaded = PackedModel::load(path);
  EXPECT_TRUE(loaded.crc_verified());

  std::ifstream is(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(is)),
                          std::istreambuf_iterator<char>());
  is.close();
  std::remove(path.c_str());

  const auto write_mutated = [&](std::size_t offset, char flip) {
    std::vector<char> mutated = bytes;
    mutated[offset] = static_cast<char>(mutated[offset] ^ flip);
    const std::string p = temp_path("packed_v3_mutated.bin");
    std::ofstream os(p, std::ios::binary);
    os.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    return p;
  };

  // A low bit flipped in the body's tail — raw float payload, invisible
  // to every structural check — and a flipped trailer byte must both be
  // rejected by the checksum.
  const std::string body_flip = write_mutated(bytes.size() - 5, 0x01);
  EXPECT_THROW(PackedModel::load(body_flip), std::runtime_error);
  std::remove(body_flip.c_str());
  const std::string trailer_flip = write_mutated(bytes.size() - 1, 0x01);
  EXPECT_THROW(PackedModel::load(trailer_flip), std::runtime_error);
  std::remove(trailer_flip.c_str());
}

TEST(PackedModel, V2ArtifactLoadsCompatiblyButUnverified) {
  auto model = make_convnet();
  install_random_hybrid_masks(*model, 8, 2, 4, 1);
  const PackedModel packed = PackedModel::pack(*model, 8, 2, 4);
  const std::string path = temp_path("packed_v2.bin");
  packed.save(path, /*version=*/2);  // the legacy writer, for compat tests

  const PackedModel loaded = PackedModel::load(path);
  std::remove(path.c_str());
  // Pre-upgrade artifacts stay loadable — but the caller can tell no
  // checksum covered them.
  EXPECT_FALSE(loaded.crc_verified());
  ASSERT_EQ(loaded.entries().size(), packed.entries().size());
  for (std::size_t i = 0; i < packed.entries().size(); ++i)
    EXPECT_FLOAT_EQ(max_abs_diff(loaded.entries()[i].matrix.decode(),
                                 packed.entries()[i].matrix.decode()),
                    0.0f);
}

TEST(PackedModel, LoadRejectsTrailingGarbage) {
  // Appended bytes used to load silently on v2 — a truncated-or-spliced
  // artifact must never pass as intact, at either version.
  auto model = make_convnet();
  install_random_hybrid_masks(*model, 8, 2, 4, 1);
  const PackedModel packed = PackedModel::pack(*model, 8, 2, 4);
  for (const std::uint32_t version : {2u, 3u}) {
    const std::string path = temp_path("packed_trailing.bin");
    packed.save(path, version);
    {
      std::ofstream os(path, std::ios::binary | std::ios::app);
      os << "stowaway";
    }
    EXPECT_THROW(PackedModel::load(path), std::runtime_error)
        << "version " << version;
    std::remove(path.c_str());
  }
}

TEST(PackedModel, UnpackRestoresEffectiveWeightsAndMasks) {
  auto model = make_convnet();
  install_random_hybrid_masks(*model, 8, 2, 4, 1);
  Rng xrng(5);
  const Tensor x = Tensor::randn({2, 3, 8, 8}, xrng);
  const Tensor want = nn::predict(*model, x);
  const PackedModel packed = PackedModel::pack(*model, 8, 2, 4);

  auto fresh = make_convnet();  // same architecture, different weights
  packed.unpack_into(*fresh);
  const Tensor got = nn::predict(*fresh, x);
  EXPECT_LE(max_abs_diff(want, got), 1e-6f);

  for (nn::Parameter* p : fresh->prunable_parameters()) {
    ASSERT_TRUE(p->has_mask()) << p->name;
    EXPECT_GT(p->mask_sparsity(), 0.3) << p->name;
  }
}

using serve::CompiledModel;

TEST(PackedExec, PackedForwardMatchesMaskedDense) {
  std::shared_ptr<nn::Sequential> model = make_convnet();
  install_random_hybrid_masks(*model, 8, 2, 4, 1);
  Rng xrng(5);
  const Tensor x = Tensor::randn({3, 3, 8, 8}, xrng);
  const Tensor dense_out = nn::predict(*model, x);

  auto packed =
      std::make_shared<const PackedModel>(PackedModel::pack(*model, 8, 2, 4));
  const auto compiled = CompiledModel::compile(model, packed);
  EXPECT_EQ(compiled->packed_layers().size(), packed->entries().size());
  // Same multiplications in a different accumulation order.
  EXPECT_LE(max_abs_diff(dense_out, compiled->run(x)), 1e-4f);
}

TEST(PackedExec, CompileSkipsGroupedConvs) {
  std::shared_ptr<nn::Sequential> model =
      make_convnet(/*grouped_prunable=*/true);
  install_random_hybrid_masks(*model, 8, 2, 4, 1);
  Rng xrng(5);
  const Tensor x = Tensor::randn({2, 3, 8, 8}, xrng);
  const Tensor dense_out = nn::predict(*model, x);

  auto packed =
      std::make_shared<const PackedModel>(PackedModel::pack(*model, 8, 2, 4));
  const auto compiled = CompiledModel::compile(model, packed);
  // conv2 (groups=2) stays dense; conv1 and fc run packed.
  const std::vector<std::string>& bound = compiled->packed_layers();
  EXPECT_EQ(bound.size(), packed->entries().size() - 1);
  for (const std::string& name : bound) EXPECT_NE(name, "conv2.weight");

  // Mixed execution still matches the dense reference.
  EXPECT_LE(max_abs_diff(dense_out, compiled->run(x)), 1e-4f);
}

TEST(PackedExec, CompileLeavesModelUntouched) {
  std::shared_ptr<nn::Sequential> model = make_convnet();
  install_random_hybrid_masks(*model, 8, 2, 4, 1);
  Rng xrng(5);
  const Tensor x = Tensor::randn({2, 3, 8, 8}, xrng);
  const Tensor before = nn::predict(*model, x);
  auto packed =
      std::make_shared<const PackedModel>(PackedModel::pack(*model, 8, 2, 4));
  const auto compiled = CompiledModel::compile(model, packed);
  ASSERT_FALSE(compiled->packed_layers().empty());

  // The caller's model still computes with its own dense weights, in eval
  // and in training (with a backward, which STE needs the dense path for).
  EXPECT_FLOAT_EQ(max_abs_diff(nn::predict(*model, x), before), 0.0f);
  const Tensor train_out = model->forward(x, /*train=*/true);
  Tensor grad(train_out.shape());
  grad.fill(1.0f);
  EXPECT_NO_THROW(model->backward(grad));
  EXPECT_FLOAT_EQ(max_abs_diff(train_out, before), 0.0f);
}

TEST(PackedExec, OneModelBacksDenseAndPackedCompiles) {
  std::shared_ptr<nn::Sequential> model = make_convnet();
  install_random_hybrid_masks(*model, 8, 2, 4, 1);
  Rng xrng(5);
  const Tensor x = Tensor::randn({2, 3, 8, 8}, xrng);
  const Tensor before = nn::predict(*model, x);
  auto packed =
      std::make_shared<const PackedModel>(PackedModel::pack(*model, 8, 2, 4));

  const auto dense = CompiledModel::compile(model);
  const auto sparse = CompiledModel::compile(model, packed);
  ASSERT_EQ(&dense->model(), &sparse->model());
  EXPECT_TRUE(dense->packed_layers().empty());
  EXPECT_EQ(sparse->packed_layers().size(), packed->entries().size());
  // Each artifact runs its own binding of the one shared model, in any
  // order: a packed run leaves nothing behind that the dense run sees.
  EXPECT_FLOAT_EQ(max_abs_diff(dense->run(x), before), 0.0f);
  EXPECT_LE(max_abs_diff(sparse->run(x), before), 1e-4f);
  EXPECT_FLOAT_EQ(max_abs_diff(dense->run(x), before), 0.0f);
}

TEST(PackedExec, LinearOnlyModelRoundTrips) {
  Rng rng(9);
  auto model = std::make_shared<nn::Sequential>("mlp");
  model->emplace<nn::Linear>("fc1", 32, 24, rng);
  model->emplace<nn::ReLU>("relu");
  model->emplace<nn::Linear>("fc2", 24, 8, rng);
  install_random_hybrid_masks(*model, 8, 2, 4, 1);

  Rng xrng(5);
  const Tensor x = Tensor::randn({4, 32}, xrng);
  const Tensor dense_out = nn::predict(*model, x);
  auto packed =
      std::make_shared<const PackedModel>(PackedModel::pack(*model, 8, 2, 4));
  const auto compiled = CompiledModel::compile(model, packed);
  EXPECT_EQ(compiled->packed_layers().size(), 2u);
  EXPECT_LE(max_abs_diff(dense_out, compiled->run(x)), 1e-4f);
}

TEST(PackedModel, UnmaskedModelPacksAsAllDense) {
  auto model = make_convnet();  // no masks installed anywhere
  const PackedModel packed = PackedModel::pack(*model, 8, 2, 4);
  EXPECT_TRUE(packed.entries().empty());
  const PackedStats s = packed.stats();
  EXPECT_EQ(s.carried_dense_bits, s.model_dense_bits);
  EXPECT_DOUBLE_EQ(s.compression(), 1.0);

  // Round-trips like any artifact: everything rides in the dense state.
  const std::string path = temp_path("packed_dense.bin");
  packed.save(path);
  const PackedModel loaded = PackedModel::load(path);
  std::remove(path.c_str());
  auto fresh = make_convnet();
  loaded.unpack_into(*fresh);
  Rng xrng(5);
  const Tensor x = Tensor::randn({2, 3, 8, 8}, xrng);
  EXPECT_LE(max_abs_diff(nn::predict(*model, x), nn::predict(*fresh, x)),
            1e-6f);
}

TEST(PackedExec, CompiledModelSurvivesOwnerHandleDestruction) {
  // The kernel table co-owns the artifact through aliasing shared_ptrs:
  // each kernel pointer is one entry's CrispMatrix, but the refcount is
  // the whole PackedModel's. Dropping every caller-side handle — moved-from
  // staging object, reset shared_ptr — must leave packed serving intact.
  std::shared_ptr<nn::Sequential> model = make_convnet();
  install_random_hybrid_masks(*model, 8, 2, 4, 1);
  Rng xrng(5);
  const Tensor x = Tensor::randn({2, 3, 8, 8}, xrng);
  const Tensor want = nn::predict(*model, x);

  PackedModel staging = PackedModel::pack(*model, 8, 2, 4);
  auto packed = std::make_shared<const PackedModel>(std::move(staging));
  const auto compiled = CompiledModel::compile(model, packed);
  ASSERT_FALSE(compiled->packed_layers().empty());
  packed.reset();  // the kernel table holds the only remaining references
  model.reset();
  EXPECT_LE(max_abs_diff(want, compiled->run(x)), 1e-4f);
}

// The full pipeline: CRISP-prune a real (tiny) model, pack, ship, reload,
// execute packed — accuracy must survive the journey unchanged.
TEST(PackedPipeline, PruneShipReloadServe) {
  data::ClassPatternConfig dcfg = data::ClassPatternConfig::cifar100_like();
  dcfg.num_classes = 6;
  dcfg.image_size = 8;
  dcfg.train_per_class = 8;
  dcfg.test_per_class = 4;
  const data::TrainTest split = data::make_class_pattern_dataset(dcfg);

  nn::ModelConfig mcfg;
  mcfg.num_classes = 6;
  mcfg.input_size = 8;
  mcfg.width_mult = 0.125f;
  auto model = nn::make_vgg16(mcfg);

  nn::TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 16;
  tc.sgd.lr = 0.05f;
  Rng rng(1);
  nn::train(*model, split.train, tc, rng);

  core::CrispConfig pcfg;
  pcfg.n = 2;
  pcfg.m = 4;
  pcfg.block = 8;
  pcfg.target_sparsity = 0.75;
  pcfg.iterations = 2;
  pcfg.finetune_epochs = 1;
  pcfg.recovery_epochs = 2;
  core::CrispPruner pruner(*model, pcfg);
  pruner.run(split.train, rng);

  const float acc_pruned = nn::evaluate(*model, split.test);

  const std::string path = temp_path("pipeline_packed.bin");
  PackedModel::pack(*model, pcfg.block, pcfg.n, pcfg.m).save(path);

  const auto shipped =
      std::make_shared<const PackedModel>(PackedModel::load(path));
  std::remove(path.c_str());
  // Fresh weights on the device, replaced by the artifact's.
  std::shared_ptr<nn::Sequential> device_model = nn::make_vgg16(mcfg);
  shipped->unpack_into(*device_model);
  const auto compiled = CompiledModel::compile(device_model, shipped);
  EXPECT_FALSE(compiled->packed_layers().empty());
  const float acc_served = nn::evaluate(
      [&](const Tensor& x) { return compiled->run(x); }, split.test);
  EXPECT_NEAR(acc_served, acc_pruned, 1e-6f);
}

}  // namespace
}  // namespace crisp::deploy
