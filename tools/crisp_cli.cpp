// crisp_cli — command-line front end for the library.
//
//   crisp_cli prune    --model resnet50 --classes 10 --sparsity 0.9
//                      [--nm 2:4] [--block 16] [--dataset cifar100|imagenet]
//                      [--out pruned.bin]
//   crisp_cli pack     (prune flags) [--out packed.crisp]
//   crisp_cli info     --in pruned.bin
//   crisp_cli packinfo --in packed.crisp
//   crisp_cli simulate [--nm 2:4] [--block 64] [--sparsity 0.9]
//   crisp_cli dse      [--nm 2:4] [--block 64]
//   crisp_cli criteria
//   crisp_cli unlearn  --model vgg16 --classes 10 --forget 2 [--drop 1]
//   crisp_cli fleet save --out fleet.shard [--tenants 8] [--seed 11]
//   crisp_cli fleet load --in fleet.shard  [--seed 11]
//   crisp_cli fleet fsck --in fleet.shard  [--repair 1]
//
// `prune` runs the full pipeline (zoo pre-train -> user classes -> CRISP ->
// bake -> save); `pack` does the same but ships the CRISP packed artifact
// (hybrid format + carried dense state) and verifies it serves identically;
// `info`/`packinfo` inspect saved artifacts; `simulate` estimates CRISP-STC
// latency/energy on the true ResNet-50 shapes; `dse` sweeps the fabric
// knobs and prints the Pareto-efficient configurations. `criteria` lists
// the registered saliency criteria (prune/pack/sensitivity take
// --criterion NAME, including "auto" for the loss-aware per-layer
// selector); `unlearn` prunes the blocks salient for a forget-class split
// and reports forgotten vs retained accuracy. `fleet` exercises the
// durable-tenant path end to end: `save` registers a synthetic fleet of
// mask-delta personalizations and persists it to one CRSPSHRD shard,
// `load` re-derives the same base (the seed must match the save) and
// recovers the fleet from the shard, `fsck` scans a shard and reports its
// integrity (docs/persistence.md) — exit 1 when the scan is not clean.
// No command needs external data — everything runs on the synthetic
// substrate.
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "accel/dse.h"
#include "accel/report.h"
#include "core/block_pruning.h"
#include "core/pruner.h"
#include "core/sensitivity.h"
#include "core/unlearn.h"
#include "deploy/packed_model.h"
#include "nn/activations.h"
#include "nn/flops.h"
#include "nn/linear.h"
#include "nn/zoo.h"
#include "serve/compiled_model.h"
#include "sparse/block.h"
#include "tenant/shard.h"
#include "tenant/store.h"

using namespace crisp;

namespace {

struct Args {
  std::map<std::string, std::string> kv;

  std::string get(const std::string& key, const std::string& fallback) const {
    auto it = kv.find(key);
    return it == kv.end() ? fallback : it->second;
  }
  double get_double(const std::string& key, double fallback) const {
    auto it = kv.find(key);
    return it == kv.end() ? fallback : std::stod(it->second);
  }
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const {
    auto it = kv.find(key);
    return it == kv.end() ? fallback : std::stoll(it->second);
  }
};

Args parse_args(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    CRISP_CHECK(key.size() > 2 && key[0] == '-' && key[1] == '-',
                "expected --flag value pairs, got '" << key << "'");
    args.kv[key.substr(2)] = argv[i + 1];
  }
  return args;
}

void parse_nm(const std::string& s, std::int64_t& n, std::int64_t& m) {
  const auto colon = s.find(':');
  CRISP_CHECK(colon != std::string::npos, "--nm expects the form N:M");
  n = std::stoll(s.substr(0, colon));
  m = std::stoll(s.substr(colon + 1));
}

nn::ModelKind parse_model(const std::string& s) {
  if (s == "resnet50") return nn::ModelKind::kResNet50;
  if (s == "vgg16") return nn::ModelKind::kVgg16;
  if (s == "mobilenetv2") return nn::ModelKind::kMobileNetV2;
  CRISP_CHECK(false, "unknown model '" << s
                                       << "' (resnet50|vgg16|mobilenetv2)");
  return nn::ModelKind::kResNet50;
}

/// Shared prune pipeline for the `prune` and `pack` commands.
struct PruneOutcome {
  nn::ZooSpec spec;
  nn::PretrainedModel pm;
  std::vector<std::int64_t> classes;
  data::Dataset user_test;
  core::CrispConfig cfg;
  core::CrispPruner pruner;
  float accuracy = 0.0f;
};

PruneOutcome run_prune_pipeline(const Args& args) {
  nn::ZooSpec spec;
  spec.model = parse_model(args.get("model", "resnet50"));
  spec.dataset = args.get("dataset", "cifar100") == "imagenet"
                     ? nn::DatasetKind::kImageNetLike
                     : nn::DatasetKind::kCifar100Like;
  spec.width_mult = static_cast<float>(args.get_double("width", 0.125));
  spec.input_size = args.get_int("input", 16);
  spec.pretrain_epochs = args.get_int("pretrain-epochs", 12);
  spec.train_per_class = args.get_int("train-per-class", 16);
  nn::PretrainedModel pm = nn::zoo_pretrained(spec, /*verbose=*/true);

  Rng rng(args.get_int("seed", 2024));
  const auto classes = data::sample_user_classes(
      pm.data.train.num_classes, args.get_int("classes", 10), rng);
  const data::Dataset user_train = data::filter_classes(pm.data.train, classes);
  data::Dataset user_test = data::filter_classes(pm.data.test, classes);

  core::CrispConfig cfg;
  parse_nm(args.get("nm", "2:4"), cfg.n, cfg.m);
  cfg.block = args.get_int("block", 16);
  cfg.target_sparsity = args.get_double("sparsity", 0.9);
  cfg.iterations = args.get_int("iterations", 3);
  cfg.finetune_epochs = args.get_int("finetune-epochs", 2);
  cfg.recovery_epochs = args.get_int("recovery-epochs", 12);
  cfg.saliency.criterion = args.get("criterion", "cass");
  cfg.verbose = true;

  // The Sequential lives on the heap: moving the unique_ptr into the
  // outcome does not move the network, so the pruner's reference stays
  // valid as long as it is bound before the move.
  nn::Sequential& model = *pm.model;
  PruneOutcome out{std::move(spec),      std::move(pm),
                   classes,              std::move(user_test),
                   cfg,                  core::CrispPruner(model, cfg)};
  const core::PruneReport report = out.pruner.run(user_train, rng);
  out.accuracy = nn::evaluate(*out.pm.model, out.user_test, 64, classes);
  const double flops =
      nn::count_flops(*out.pm.model,
                      {1, 3, out.spec.input_size, out.spec.input_size})
          .ratio();
  std::printf("\npruned: %.1f%% sparsity, user-class accuracy %.1f%%, "
              "FLOPs ratio %.3f\n",
              100 * report.achieved_sparsity(), 100 * out.accuracy, flops);
  return out;
}

int cmd_prune(const Args& args) {
  PruneOutcome out = run_prune_pipeline(args);
  out.pruner.bake();
  const std::string path = args.get("out", "crisp_pruned.bin");
  save_tensors(out.pm.model->state_dict(), path);
  std::printf("saved state_dict (with masks) to %s\n", path.c_str());
  return 0;
}

int cmd_pack(const Args& args) {
  PruneOutcome out = run_prune_pipeline(args);
  const deploy::PackedModel packed = deploy::PackedModel::pack(
      *out.pm.model, out.cfg.block, out.cfg.n, out.cfg.m);
  const deploy::PackedStats stats = packed.stats();
  std::printf("packed: payload %.1f KiB + metadata %.1f KiB + dense %.1f KiB "
              "= %.2fx of the %.1f KiB dense model\n",
              static_cast<double>(stats.packed_payload_bits) / 8192.0,
              static_cast<double>(stats.packed_metadata_bits) / 8192.0,
              static_cast<double>(stats.carried_dense_bits) / 8192.0,
              stats.compression(),
              static_cast<double>(stats.model_dense_bits) / 8192.0);

  const std::string path = args.get("out", "crisp_packed.crisp");
  packed.save(path);

  // Round-trip check: reload, rebuild the architecture, serve packed.
  // The compiled model co-owns the reloaded artifact, so no caller-side
  // handle has to outlive it.
  auto shipped = std::make_shared<const deploy::PackedModel>(
      deploy::PackedModel::load(path));
  std::shared_ptr<nn::Sequential> device =
      nn::make_model(out.spec.model, out.spec.model_config());
  shipped->unpack_into(*device);
  const auto compiled = serve::CompiledModel::compile(device, shipped);
  const float served = nn::evaluate(
      [&](const Tensor& x) { return compiled->run(x); }, out.user_test, 64,
      out.classes);
  std::printf("saved %s; served accuracy from packed artifact: %.1f%% "
              "(cloud-side %.1f%%)\n",
              path.c_str(), 100 * served, 100 * out.accuracy);
  return served == out.accuracy ? 0 : 1;
}

int cmd_packinfo(const Args& args) {
  const std::string path = args.get("in", "crisp_packed.crisp");
  const deploy::PackedModel packed = deploy::PackedModel::load(path);
  std::printf("%s: %lld:%lld sparsity, block %lldx%lld\n", path.c_str(),
              static_cast<long long>(packed.n()),
              static_cast<long long>(packed.m()),
              static_cast<long long>(packed.block()),
              static_cast<long long>(packed.block()));
  std::printf("\n%-34s %-16s %10s %12s\n", "packed entry", "matrix", "KiB",
              "metadata b");
  for (const auto& e : packed.entries()) {
    std::printf("%-34s %6lld x %-7lld %10.1f %12lld\n", e.name.c_str(),
                static_cast<long long>(e.matrix.rows()),
                static_cast<long long>(e.matrix.cols()),
                static_cast<double>(e.matrix.payload_bits()) / 8192.0,
                static_cast<long long>(e.matrix.metadata_bits()));
  }
  const deploy::PackedStats stats = packed.stats();
  std::printf("\n%zu dense tensors carried (%.1f KiB); total %.2fx of dense\n",
              packed.dense_state().size(),
              static_cast<double>(stats.carried_dense_bits) / 8192.0,
              stats.compression());
  return 0;
}

int cmd_info(const Args& args) {
  const std::string path = args.get("in", "crisp_pruned.bin");
  const TensorMap state = load_tensors(path);
  std::printf("%s: %zu tensors\n\n", path.c_str(), state.size());
  std::printf("%-34s %-14s %10s %10s\n", "name", "shape", "KiB", "zeros");
  double total_kib = 0;
  std::int64_t total = 0, zeros = 0;
  for (const auto& [name, t] : state) {
    const double kib = static_cast<double>(t.numel()) * 4.0 / 1024.0;
    total_kib += kib;
    if (name.find("#mask") == std::string::npos) {
      total += t.numel();
      zeros += t.numel() - t.count_nonzero();
    }
    std::printf("%-34s %-14s %10.1f %9.1f%%\n", name.c_str(),
                shape_to_string(t.shape()).c_str(), kib,
                100.0 * t.zero_fraction());
  }
  std::printf("\ntotal %.1f KiB; weight zero fraction %.1f%%\n", total_kib,
              100.0 * static_cast<double>(zeros) / static_cast<double>(total));
  return 0;
}

int cmd_simulate(const Args& args) {
  std::int64_t n = 2, m = 4;
  parse_nm(args.get("nm", "2:4"), n, m);
  const std::int64_t block = args.get_int("block", 64);
  const double kappa = args.get_double("sparsity", 0.9);

  const auto net = accel::resnet50_imagenet_workloads();
  const auto profiles = accel::ramp_profiles(
      static_cast<std::int64_t>(net.size()), n, m, block, kappa - 0.03,
      kappa + 0.03);
  const auto rows = accel::compare_accelerators(
      net, profiles, accel::AcceleratorConfig::edge_default(),
      accel::EnergyModel::edge_default());

  double dense_cy = 0, crisp_cy = 0, dense_e = 0, crisp_e = 0, nv_cy = 0,
         ds_cy = 0;
  for (const auto& row : rows) {
    dense_cy += row.dense.cycles;
    crisp_cy += row.crisp.cycles;
    dense_e += row.dense.energy_pj;
    crisp_e += row.crisp.energy_pj;
    nv_cy += row.nvidia.cycles;
    ds_cy += row.dstc.cycles;
  }
  std::printf("ResNet-50 @224, %lld:%lld, B=%lld, kappa=%.1f%%\n",
              static_cast<long long>(n), static_cast<long long>(m),
              static_cast<long long>(block), 100 * kappa);
  std::printf("  CRISP-STC:  %.2fx speedup, %.2fx energy efficiency\n",
              dense_cy / crisp_cy, dense_e / crisp_e);
  std::printf("  NVIDIA-STC: %.2fx speedup\n", dense_cy / nv_cy);
  std::printf("  DSTC:       %.2fx speedup\n", dense_cy / ds_cy);
  return 0;
}

int cmd_sensitivity(const Args& args) {
  nn::ZooSpec spec;
  spec.model = parse_model(args.get("model", "resnet50"));
  spec.dataset = args.get("dataset", "cifar100") == "imagenet"
                     ? nn::DatasetKind::kImageNetLike
                     : nn::DatasetKind::kCifar100Like;
  spec.width_mult = static_cast<float>(args.get_double("width", 0.125));
  spec.input_size = args.get_int("input", 16);
  spec.pretrain_epochs = args.get_int("pretrain-epochs", 12);
  spec.train_per_class = args.get_int("train-per-class", 16);
  nn::PretrainedModel pm = nn::zoo_pretrained(spec, /*verbose=*/true);

  Rng rng(args.get_int("seed", 2024));
  const auto classes = data::sample_user_classes(
      pm.data.train.num_classes, args.get_int("classes", 10), rng);
  const data::Dataset user_train = data::filter_classes(pm.data.train, classes);

  core::SensitivityConfig cfg;
  parse_nm(args.get("nm", "2:4"), cfg.n, cfg.m);
  cfg.block = args.get_int("block", 8);
  cfg.saliency.criterion = args.get("criterion", "cass");
  const auto profile = core::layer_sensitivity(*pm.model, user_train, cfg);
  const double budget = args.get_double("budget", 0.1);

  std::printf("\nper-layer sparsity sensitivity (class-aware, %zu classes); "
              "loss budget %.2f\n",
              classes.size(), budget);
  std::printf("%-30s %9s %9s %9s %9s | %10s\n", "layer", "d@50%", "d@75%",
              "d@90%", "d@99%", "tolerated");
  for (const core::LayerSensitivity& ls : profile) {
    std::printf("%-30s", ls.name.c_str());
    for (const double d : ls.loss_increase) std::printf(" %+9.3f", d);
    std::printf(" | %9.0f%%\n", 100.0 * ls.tolerated_sparsity(budget));
  }
  std::printf("\n(the Fig. 2 premise: tolerated sparsity varies widely "
              "across layers)\n");
  return 0;
}

int cmd_dse(const Args& args) {
  std::int64_t n = 2, m = 4;
  parse_nm(args.get("nm", "2:4"), n, m);
  const std::int64_t block = args.get_int("block", 64);

  const auto net = accel::resnet50_imagenet_workloads();
  const auto profiles = accel::ramp_kept_profiles(
      static_cast<std::int64_t>(net.size()), n, m, block, 0.5, 0.16);
  accel::DseKnobs knobs;
  knobs.tensor_cores = {2, 4, 8};
  knobs.macs_per_core = {32, 64, 128};
  knobs.smem_kbytes = {128, 256, 512};
  knobs.smem_bw_bytes_per_cycle = {32.0, 64.0, 128.0};
  const auto points = accel::sweep_configs(
      accel::AcceleratorConfig::edge_default(),
      accel::EnergyModel::edge_default(), knobs, net, profiles);
  const auto front = accel::pareto_front(points);

  std::printf("ResNet-50 @224, %lld:%lld B=%lld — %zu configs swept, "
              "%zu Pareto-efficient:\n\n",
              static_cast<long long>(n), static_cast<long long>(m),
              static_cast<long long>(block), points.size(), front.size());
  std::printf("%-46s %12s %12s\n", "config", "Mcycles", "energy uJ");
  for (const std::size_t i : front)
    std::printf("%-46s %12.2f %12.1f\n", points[i].label().c_str(),
                points[i].cycles / 1e6, points[i].energy_pj / 1e6);
  return 0;
}

int cmd_criteria(const Args&) {
  std::printf("registered saliency criteria (crisp_cli ... --criterion NAME):\n");
  for (const std::string& name : core::criterion_names())
    std::printf("  %s\n", name.c_str());
  std::printf("  auto  (loss-aware per-layer selection; prune/pack only)\n");
  return 0;
}

int cmd_unlearn(const Args& args) {
  nn::ZooSpec spec;
  spec.model = parse_model(args.get("model", "vgg16"));
  spec.dataset = args.get("dataset", "cifar100") == "imagenet"
                     ? nn::DatasetKind::kImageNetLike
                     : nn::DatasetKind::kCifar100Like;
  spec.width_mult = static_cast<float>(args.get_double("width", 0.125));
  spec.input_size = args.get_int("input", 16);
  spec.pretrain_epochs = args.get_int("pretrain-epochs", 12);
  spec.train_per_class = args.get_int("train-per-class", 16);
  nn::PretrainedModel pm = nn::zoo_pretrained(spec, /*verbose=*/true);

  Rng rng(args.get_int("seed", 2024));
  const auto classes = data::sample_user_classes(
      pm.data.train.num_classes, args.get_int("classes", 10), rng);
  const std::int64_t nforget = args.get_int("forget", 2);
  CRISP_CHECK(nforget >= 1 &&
                  nforget < static_cast<std::int64_t>(classes.size()),
              "--forget must leave at least one retained class");
  const std::vector<std::int64_t> forget_classes(
      classes.begin(), classes.begin() + nforget);
  const std::vector<std::int64_t> retain_classes(
      classes.begin() + nforget, classes.end());

  const data::Dataset forget_train =
      data::filter_classes(pm.data.train, forget_classes);
  const data::Dataset retain_train =
      data::filter_classes(pm.data.train, retain_classes);
  const data::Dataset forget_test =
      data::filter_classes(pm.data.test, forget_classes);
  const data::Dataset retain_test =
      data::filter_classes(pm.data.test, retain_classes);

  const float forget_before =
      nn::evaluate(*pm.model, forget_test, 64, forget_classes);
  const float retain_before =
      nn::evaluate(*pm.model, retain_test, 64, retain_classes);

  core::UnlearnConfig cfg;
  cfg.criterion = args.get("criterion", "cass");
  cfg.drop_per_row = args.get_int("drop", 1);
  cfg.block = args.get_int("block", 16);
  cfg.retain_weight = args.get_double("retain-weight", 1.0);
  cfg.finetune_epochs = args.get_int("finetune-epochs", 4);
  const core::UnlearnReport report =
      core::unlearn_classes(*pm.model, forget_train, retain_train, cfg, rng);

  const float forget_after =
      nn::evaluate(*pm.model, forget_test, 64, forget_classes);
  const float retain_after =
      nn::evaluate(*pm.model, retain_test, 64, retain_classes);
  std::printf("\nunlearned %lld of %zu classes (criterion %s, drop %lld "
              "block/row): sparsity %.1f%% -> %.1f%%\n",
              static_cast<long long>(nforget), classes.size(),
              cfg.criterion.c_str(), static_cast<long long>(cfg.drop_per_row),
              100 * report.sparsity_before, 100 * report.sparsity_after);
  std::printf("  forgotten classes: %.1f%% -> %.1f%% accuracy\n",
              100 * forget_before, 100 * forget_after);
  std::printf("  retained classes:  %.1f%% -> %.1f%% accuracy\n",
              100 * retain_before, 100 * retain_after);
  return 0;
}

// ---- fleet: durable tenant shards ------------------------------------------
// The synthetic fleet mirrors bench/tenants.cpp: one small MLP base under
// the hybrid pattern, each tenant dropping one more surviving block per
// block-row. The shard carries only the deltas — both `save` and `load`
// re-derive the base from --seed, so the seeds must match (load_shard
// quarantines structurally incompatible deltas, but a same-architecture
// base from another seed is on the operator to avoid, exactly as a real
// deployment must pair a shard with its base artifact).

constexpr std::int64_t kFleetBlock = 8, kFleetN = 2, kFleetM = 4;
constexpr std::int64_t kFleetPrunedRanks = 2;

std::shared_ptr<nn::Sequential> fleet_model(std::uint64_t seed) {
  Rng rng(seed);
  auto model = std::make_shared<nn::Sequential>("fleet_mlp");
  model->emplace<nn::Linear>("fc1", 128, 96, rng);
  model->emplace<nn::ReLU>("relu1");
  model->emplace<nn::Linear>("fc2", 96, 64, rng);
  model->emplace<nn::ReLU>("relu2");
  model->emplace<nn::Linear>("head", 64, 16, rng);
  return model;
}

struct Fleet {
  std::shared_ptr<const tenant::BaseArtifact> base;
  tenant::ModelFactory factory;
};

Fleet fleet_base(std::uint64_t seed) {
  const tenant::ModelFactory factory = [seed] { return fleet_model(seed); };
  auto model = factory();
  core::install_random_hybrid_masks(*model, kFleetBlock, kFleetN, kFleetM,
                                    kFleetPrunedRanks, seed);
  auto base = tenant::BaseArtifact::create(
      std::make_shared<const deploy::PackedModel>(
          deploy::PackedModel::pack(*model, kFleetBlock, kFleetN, kFleetM)));
  return Fleet{std::move(base), factory};
}

/// Zeroes one surviving block per block-row of every masked parameter,
/// selected by `salt` — the same per-tenant restriction the bench uses.
void fleet_drop_blocks(nn::Sequential& model, std::uint64_t salt) {
  for (nn::Parameter* p : model.prunable_parameters()) {
    if (!p->has_mask()) continue;
    const std::int64_t rows = p->matrix_rows, cols = p->matrix_cols;
    const std::int64_t grid_rows = (rows + kFleetBlock - 1) / kFleetBlock;
    const std::int64_t grid_cols = (cols + kFleetBlock - 1) / kFleetBlock;
    float* mask = p->mask.data();
    for (std::int64_t br = 0; br < grid_rows; ++br) {
      const std::int64_t r0 = br * kFleetBlock;
      const std::int64_t r1 = std::min(rows, r0 + kFleetBlock);
      std::vector<std::int64_t> survivors;
      for (std::int64_t bc = 0; bc < grid_cols; ++bc) {
        const std::int64_t c0 = bc * kFleetBlock;
        const std::int64_t c1 = std::min(cols, c0 + kFleetBlock);
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
      const std::int64_t c0 = bc * kFleetBlock;
      const std::int64_t c1 = std::min(cols, c0 + kFleetBlock);
      for (std::int64_t r = r0; r < r1; ++r)
        for (std::int64_t c = c0; c < c1; ++c) mask[r * cols + c] = 0.0f;
    }
  }
}

int cmd_fleet_save(const Args& args) {
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 11));
  const std::int64_t tenants = args.get_int("tenants", 8);
  const std::string path = args.get("out", "fleet.shard");

  Fleet fleet = fleet_base(seed);
  tenant::Store store(fleet.base, fleet.factory);
  for (std::int64_t i = 0; i < tenants; ++i) {
    auto model = fleet.factory();
    core::install_random_hybrid_masks(*model, kFleetBlock, kFleetN, kFleetM,
                                      kFleetPrunedRanks, seed);
    fleet_drop_blocks(*model, static_cast<std::uint64_t>(i));
    store.register_tenant("tenant-" + std::to_string(i),
                          tenant::MaskDelta::from_model(*fleet.base, *model));
  }
  const std::int64_t saved = store.save_shard(path);
  const tenant::ResidentBytes rb = store.resident_bytes();
  std::printf("saved %lld tenants to %s (base %.1f KiB shared once, "
              "deltas %.2f KiB total)\n",
              static_cast<long long>(saved), path.c_str(),
              static_cast<double>(rb.base) / 1024.0,
              static_cast<double>(rb.deltas) / 1024.0);
  return 0;
}

int cmd_fleet_load(const Args& args) {
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 11));
  const std::string path = args.get("in", "fleet.shard");

  Fleet fleet = fleet_base(seed);
  tenant::Store store(fleet.base, fleet.factory);
  const tenant::ShardLoadReport rep = store.load_shard(path);
  std::printf("%s: recovered %lld tenants (%lld quarantined, scan %s)\n",
              path.c_str(), static_cast<long long>(rep.loaded),
              static_cast<long long>(rep.quarantined),
              rep.scan.clean() ? "clean" : "NOT clean");
  if (rep.loaded > 0) {
    // Prove one recovered personalization actually serves.
    const auto compiled = store.acquire("tenant-0");
    Rng rng(7);
    const Tensor out = compiled->run(Tensor::rand({1, 128}, rng, -1.0f, 1.0f));
    std::printf("tenant-0 serves: output [1 x %lld] OK\n",
                static_cast<long long>(out.shape().back()));
  }
  return rep.scan.clean() && rep.quarantined == 0 ? 0 : 1;
}

int cmd_fleet_fsck(const Args& args) {
  const std::string path = args.get("in", "fleet.shard");
  const bool repair = args.get_int("repair", 0) != 0;
  const tenant::ShardScanResult scan = tenant::scan_shard(path, repair);
  std::printf("%s: %lld intact records, %lld crc failures, %lld malformed, "
              "%lld bytes dropped -> %s\n",
              path.c_str(), static_cast<long long>(scan.report.records),
              static_cast<long long>(scan.report.crc_failures),
              static_cast<long long>(scan.report.malformed),
              static_cast<long long>(scan.report.dropped_bytes),
              scan.report.clean() ? "clean" : "NOT clean");
  for (const tenant::ShardRecord& r : scan.records)
    std::printf("  %-24s %6lld delta bytes\n", r.tenant_id.c_str(),
                static_cast<long long>(r.delta.delta_bytes()));
  if (!scan.report.clean() && repair)
    std::printf("repaired: truncated to the last intact record (%lld "
                "bytes)\n",
                static_cast<long long>(scan.good_bytes));
  return scan.report.clean() ? 0 : 1;
}

void usage() {
  std::printf(
      "usage:\n"
      "  crisp_cli prune    --model resnet50 --classes 10 --sparsity 0.9\n"
      "                     [--nm 2:4] [--block 16] [--dataset cifar100]\n"
      "                     [--out pruned.bin] [--seed 2024]\n"
      "  crisp_cli pack     (prune flags) [--out packed.crisp]\n"
      "  crisp_cli info     --in pruned.bin\n"
      "  crisp_cli packinfo --in packed.crisp\n"
      "  crisp_cli simulate [--nm 2:4] [--block 64] [--sparsity 0.9]\n"
      "  crisp_cli dse      [--nm 2:4] [--block 64]\n"
      "  crisp_cli sensitivity --model resnet50 --classes 10 [--budget 0.1]\n"
      "  crisp_cli criteria\n"
      "  crisp_cli unlearn  --model vgg16 --classes 10 --forget 2 [--drop 1]\n"
      "                     [--criterion cass] [--retain-weight 1.0]\n"
      "  crisp_cli fleet save --out fleet.shard [--tenants 8] [--seed 11]\n"
      "  crisp_cli fleet load --in fleet.shard  [--seed 11]\n"
      "  crisp_cli fleet fsck --in fleet.shard  [--repair 1]\n"
      "(prune, pack, and sensitivity also take --criterion NAME; prune and\n"
      " pack accept --criterion auto for loss-aware per-layer selection;\n"
      " fleet load must use the save's --seed to re-derive the same base)\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "fleet") {
      if (argc < 3) {
        usage();
        return 1;
      }
      const std::string sub = argv[2];
      const Args args = parse_args(argc, argv, 3);
      if (sub == "save") return cmd_fleet_save(args);
      if (sub == "load") return cmd_fleet_load(args);
      if (sub == "fsck") return cmd_fleet_fsck(args);
      usage();
      return 1;
    }
    const Args args = parse_args(argc, argv, 2);
    if (cmd == "prune") return cmd_prune(args);
    if (cmd == "pack") return cmd_pack(args);
    if (cmd == "info") return cmd_info(args);
    if (cmd == "packinfo") return cmd_packinfo(args);
    if (cmd == "simulate") return cmd_simulate(args);
    if (cmd == "dse") return cmd_dse(args);
    if (cmd == "sensitivity") return cmd_sensitivity(args);
    if (cmd == "criteria") return cmd_criteria(args);
    if (cmd == "unlearn") return cmd_unlearn(args);
    usage();
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
