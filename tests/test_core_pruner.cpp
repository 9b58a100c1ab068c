// CRISP pruner tests: schedule, global rank-column planning, the full
// Algorithm-1 loop with its invariants, the census, and the baselines.
#include <gtest/gtest.h>

#include "core/baselines/block_pruner.h"
#include "core/baselines/channel_pruner.h"
#include "core/pruner.h"
#include "data/class_pattern.h"
#include "nn/linear.h"
#include "nn/models/common.h"
#include "sparse/nm.h"

namespace crisp::core {
namespace {

// ---------------------------------------------------------------------------
// Schedule.

TEST(Schedule, RampsFromFloorToTarget) {
  SparsitySchedule s{0.9, 4, 2, 4};
  EXPECT_DOUBLE_EQ(s.floor(), 0.5);
  EXPECT_NEAR(s.kappa_at(1), 0.6, 1e-12);
  EXPECT_NEAR(s.kappa_at(2), 0.7, 1e-12);
  EXPECT_NEAR(s.kappa_at(4), 0.9, 1e-12);
  for (std::int64_t p = 2; p <= 4; ++p)
    EXPECT_GT(s.kappa_at(p), s.kappa_at(p - 1));
  EXPECT_THROW(s.kappa_at(0), std::runtime_error);
  EXPECT_THROW(s.kappa_at(5), std::runtime_error);
}

TEST(Schedule, TargetBelowFloorNeedsNoBlocks) {
  SparsitySchedule s{0.3, 3, 2, 4};  // N:M alone gives 0.5 > 0.3
  EXPECT_DOUBLE_EQ(s.kappa_at(1), 0.3);
  EXPECT_DOUBLE_EQ(s.block_fraction_at(1), 0.0);
}

TEST(Schedule, BlockFractionMatchesIdentity) {
  SparsitySchedule s{0.9, 1, 2, 4};
  // κ = 0.9 at 2:4: keep cols = 0.1 * 2 = 0.2 -> prune 80 % of columns.
  EXPECT_NEAR(s.block_fraction_at(1), 0.8, 1e-12);

  SparsitySchedule one{0.875, 1, 1, 4};
  // κ = 0.875 at 1:4: keep = 0.125 * 4 = 0.5.
  EXPECT_NEAR(one.block_fraction_at(1), 0.5, 1e-12);
}

// ---------------------------------------------------------------------------
// Rank-column planning.

LayerBlockInfo make_layer(std::int64_t gr, std::int64_t gc, std::int64_t block,
                          float base_score) {
  LayerBlockInfo info;
  info.grid = sparse::BlockGrid{gr * block, gc * block, block};
  info.scores = Tensor({gr, gc});
  for (std::int64_t i = 0; i < gr * gc; ++i)
    info.scores[i] = base_score * static_cast<float>(i + 1);
  return info;
}

TEST(RankPlanning, ZeroFractionPrunesNothing) {
  std::vector<LayerBlockInfo> layers{make_layer(2, 4, 4, 1.0f)};
  const auto counts = plan_rank_column_pruning(layers, 0.0, {});
  EXPECT_EQ(counts[0], 0);
}

TEST(RankPlanning, FullFractionHitsCollapseGuard) {
  std::vector<LayerBlockInfo> layers{make_layer(2, 4, 4, 1.0f)};
  BlockPruningConfig cfg;
  cfg.min_kept_ranks = 1;
  const auto counts = plan_rank_column_pruning(layers, 1.0, cfg);
  EXPECT_EQ(counts[0], 3);  // 4 ranks, at least one kept

  cfg.min_kept_ranks = 2;
  const auto counts2 = plan_rank_column_pruning(layers, 1.0, cfg);
  EXPECT_EQ(counts2[0], 2);
}

TEST(RankPlanning, TargetFractionIsMet) {
  std::vector<LayerBlockInfo> layers{make_layer(4, 8, 4, 1.0f),
                                     make_layer(2, 8, 4, 2.0f)};
  const double fraction = 0.5;
  const auto counts = plan_rank_column_pruning(layers, fraction, {});
  double removed = 0.0, total = 0.0;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const auto& g = layers[i].grid;
    total += static_cast<double>(g.rows * g.cols);
    removed += static_cast<double>(counts[i]) *
               static_cast<double>(g.rows * g.block);
  }
  EXPECT_GE(removed / total, fraction - 0.05);
  EXPECT_LE(removed / total, fraction + 0.15);  // one column of overshoot
}

TEST(RankPlanning, LowSaliencyLayerPrunedFirst) {
  // Same geometry, different layer-total saliency: with kLayerFraction both
  // see identical *fractions*, so make the asymmetry inside one layer.
  LayerBlockInfo concentrated = make_layer(2, 4, 4, 1.0f);
  // All saliency lives in the last rank column.
  concentrated.scores = Tensor({2, 4}, {0.f, 0.f, 0.f, 10.f,  //
                                        0.f, 0.f, 0.f, 10.f});
  LayerBlockInfo spread = make_layer(2, 4, 4, 1.0f);
  spread.scores = Tensor({2, 4}, {5.f, 5.f, 5.f, 5.f,  //
                                  5.f, 5.f, 5.f, 5.f});
  std::vector<LayerBlockInfo> layers{concentrated, spread};
  // Remove ~3/8 of all elements: the three zero-fraction ranks of the
  // concentrated layer go first.
  const auto counts = plan_rank_column_pruning(layers, 0.375, {});
  EXPECT_EQ(counts[0], 3);
  EXPECT_EQ(counts[1], 0);
}

TEST(RankPlanning, NormModesChangeOrdering) {
  // A small layer with low raw scores vs a big layer with high raw scores.
  LayerBlockInfo small = make_layer(1, 2, 4, 0.001f);
  LayerBlockInfo big = make_layer(8, 8, 4, 100.0f);
  std::vector<LayerBlockInfo> layers{small, big};

  BlockPruningConfig none;
  none.norm = BlockScoreNorm::kNone;
  const auto raw = plan_rank_column_pruning(layers, 0.02, none);
  // Raw aggregation prunes the small layer (tiny absolute scores) first.
  EXPECT_GT(raw[0], 0);

  BlockPruningConfig frac;
  frac.norm = BlockScoreNorm::kLayerFraction;
  const auto normalized = plan_rank_column_pruning(layers, 0.02, frac);
  // Fraction normalization protects the small layer: its 2 columns each
  // hold ~half the layer's saliency.
  EXPECT_EQ(normalized[0], 0);
}

TEST(RankPlanning, MaskMatchesPlannedCount) {
  LayerBlockInfo layer = make_layer(3, 5, 4, 1.0f);
  const Tensor mask = rank_pruned_block_mask(layer, 2);
  const sparse::BlockGrid& g = layer.grid;
  const auto counts =
      sparse::zero_blocks_per_row(as_matrix(mask, g.rows, g.cols), g);
  for (const auto c : counts) EXPECT_EQ(c, 2);
}

// ---------------------------------------------------------------------------
// Full pruner on a tiny model.

struct PrunerFixture {
  data::TrainTest split;
  std::unique_ptr<nn::Sequential> model;
  std::vector<std::int64_t> user_classes;
  data::Dataset user_train;

  PrunerFixture() {
    data::ClassPatternConfig dcfg = data::ClassPatternConfig::cifar100_like();
    dcfg.num_classes = 8;
    dcfg.image_size = 8;
    dcfg.train_per_class = 6;
    dcfg.test_per_class = 2;
    split = data::make_class_pattern_dataset(dcfg);

    nn::ModelConfig mcfg;
    mcfg.num_classes = 8;
    mcfg.input_size = 8;
    mcfg.width_mult = 0.125f;
    model = nn::make_vgg16(mcfg);

    Rng rng(5);
    user_classes = data::sample_user_classes(8, 3, rng);
    user_train = data::filter_classes(split.train, user_classes);
  }
};

TEST(CrispPruner, ReachesTargetWithAllInvariants) {
  PrunerFixture fx;
  CrispConfig cfg;
  cfg.n = 2;
  cfg.m = 4;
  cfg.block = 8;
  cfg.target_sparsity = 0.85;
  cfg.iterations = 2;
  cfg.finetune_epochs = 1;
  cfg.recovery_epochs = 1;
  CrispPruner pruner(*fx.model, cfg);
  Rng rng(1);
  const PruneReport report = pruner.run(fx.user_train, rng);

  // Target hit within tolerance (block granularity causes slack).
  EXPECT_NEAR(report.achieved_sparsity(), 0.85, 0.03);
  ASSERT_EQ(report.iterations.size(), 2u);
  EXPECT_LT(report.iterations[0].achieved_sparsity,
            report.iterations[1].achieved_sparsity + 1e-9);

  for (nn::Parameter* p : fx.model->prunable_parameters()) {
    ASSERT_TRUE(p->has_mask()) << p->name;
    const auto mask = as_matrix(p->mask, p->matrix_rows, p->matrix_cols);
    // N:M invariant everywhere.
    EXPECT_TRUE(sparse::satisfies_nm(mask, cfg.n, cfg.m)) << p->name;
    // Equal pruned blocks per row.
    const sparse::BlockGrid grid{p->matrix_rows, p->matrix_cols, cfg.block};
    EXPECT_TRUE(sparse::uniform_blocks_per_row(mask, grid)) << p->name;
    // No layer fully collapsed.
    EXPECT_LT(p->mask_sparsity(), 1.0) << p->name;
    // STE keeps dense weights alive under the mask.
    std::int64_t live_under_mask = 0;
    for (std::int64_t i = 0; i < p->mask.numel(); ++i)
      live_under_mask += (p->mask[i] == 0.0f && p->value[i] != 0.0f);
    EXPECT_GT(live_under_mask, 0) << p->name;
  }

  // Census agrees with the masks.
  EXPECT_DOUBLE_EQ(report.census.global_sparsity, report.achieved_sparsity());
  for (const auto& l : report.census.layers) EXPECT_TRUE(l.uniform_rows);
}

TEST(CrispPruner, BakeZeroesMaskedWeights) {
  PrunerFixture fx;
  CrispConfig cfg;
  cfg.block = 8;
  cfg.target_sparsity = 0.7;
  cfg.iterations = 1;
  cfg.finetune_epochs = 1;
  cfg.recovery_epochs = 0;
  CrispPruner pruner(*fx.model, cfg);
  Rng rng(2);
  pruner.run(fx.user_train, rng);
  pruner.bake();
  for (nn::Parameter* p : fx.model->prunable_parameters())
    for (std::int64_t i = 0; i < p->mask.numel(); ++i) {
      if (p->mask[i] == 0.0f) {
        EXPECT_EQ(p->value[i], 0.0f);
      }
    }
}

TEST(CrispPruner, PureNmMode) {
  PrunerFixture fx;
  CrispConfig cfg;
  cfg.n = 2;
  cfg.m = 4;
  cfg.block = 8;
  cfg.enable_block = false;
  cfg.target_sparsity = 0.5;
  cfg.iterations = 1;
  cfg.finetune_epochs = 1;
  cfg.recovery_epochs = 0;
  CrispPruner pruner(*fx.model, cfg);
  Rng rng(3);
  const PruneReport report = pruner.run(fx.user_train, rng);
  // Exactly the N:M floor (partial trailing groups allow small deviation).
  EXPECT_NEAR(report.achieved_sparsity(), 0.5, 0.02);
}

TEST(CrispPruner, PureBlockMode) {
  PrunerFixture fx;
  CrispConfig cfg = block_pruning_config(/*block=*/8, /*target=*/0.6,
                                         /*iterations=*/2, /*epochs=*/1);
  cfg.recovery_epochs = 0;
  CrispPruner pruner(*fx.model, cfg);
  Rng rng(4);
  const PruneReport report = pruner.run(fx.user_train, rng);
  EXPECT_NEAR(report.achieved_sparsity(), 0.6, 0.05);
  // Without N:M, surviving blocks stay fully dense: every layer's sparsity
  // must equal its block sparsity.
  for (const auto& l : report.census.layers) {
    const double block_fraction =
        static_cast<double>(l.pruned_blocks_per_row * l.block) /
        static_cast<double>(l.cols);
    EXPECT_NEAR(l.sparsity, block_fraction, 0.1) << l.name;
  }
}

TEST(CrispPruner, RejectsBadConfigs) {
  PrunerFixture fx;
  CrispConfig bad_nm;
  bad_nm.n = 5;
  bad_nm.m = 4;
  EXPECT_THROW(CrispPruner(*fx.model, bad_nm), std::runtime_error);
  CrispConfig bad_block;
  bad_block.block = 6;  // not a multiple of m = 4
  EXPECT_THROW(CrispPruner(*fx.model, bad_block), std::runtime_error);
  CrispConfig bad_target;
  bad_target.target_sparsity = 1.0;
  EXPECT_THROW(CrispPruner(*fx.model, bad_target), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Channel-pruning baseline.

TEST(ChannelPruner, RemovesWholeRowsUniformTarget) {
  PrunerFixture fx;
  ChannelPruneConfig cfg;
  cfg.target_sparsity = 0.5;
  cfg.iterations = 2;
  cfg.finetune_epochs = 1;
  cfg.min_kept_channels = 2;
  ChannelPruner pruner(*fx.model, cfg);
  Rng rng(6);
  const ChannelPruneReport report = pruner.run(fx.user_train, rng);

  EXPECT_NEAR(report.mask_sparsity, 0.5, 0.08);
  EXPECT_GT(report.achieved_channel_sparsity, 0.2);
  // The downstream-correction makes effective FLOPs lower than mask FLOPs.
  EXPECT_LT(report.effective_flops_ratio, 1.0 - report.mask_sparsity + 0.01);

  // Masks are whole rows: a row is all-ones or all-zeros.
  for (nn::Parameter* p : fx.model->prunable_parameters()) {
    for (std::int64_t r = 0; r < p->matrix_rows; ++r) {
      const float first = p->mask[r * p->matrix_cols];
      for (std::int64_t c = 1; c < p->matrix_cols; ++c)
        ASSERT_EQ(p->mask[r * p->matrix_cols + c], first)
            << p->name << " row " << r;
    }
    // Collapse guard.
    std::int64_t live_rows = 0;
    for (std::int64_t r = 0; r < p->matrix_rows; ++r)
      live_rows += (p->mask[r * p->matrix_cols] != 0.0f);
    EXPECT_GE(live_rows, 2) << p->name;
  }
}

// ---------------------------------------------------------------------------
// Census.

TEST(Census, ReportsCraftedMaskState) {
  Rng rng(7);
  nn::Sequential model("m");
  auto& lin = model.emplace<nn::Linear>("l", 16, 8, rng, /*bias=*/false);
  lin.weight().ensure_mask();
  // Prune block-column 1 (cols 8..15) of an 8x16 matrix with 8x8 blocks.
  for (std::int64_t r = 0; r < 8; ++r)
    for (std::int64_t c = 8; c < 16; ++c)
      lin.weight().mask[r * 16 + c] = 0.0f;

  const ModelCensus census = take_census(model, 8);
  ASSERT_EQ(census.layers.size(), 1u);
  const LayerCensus& l = census.layers[0];
  EXPECT_EQ(l.rows, 8);
  EXPECT_EQ(l.cols, 16);
  EXPECT_EQ(l.pruned_blocks_per_row, 1);
  EXPECT_EQ(l.k_prime, 8);
  EXPECT_TRUE(l.uniform_rows);
  EXPECT_DOUBLE_EQ(l.sparsity, 0.5);
  EXPECT_DOUBLE_EQ(census.global_sparsity, 0.5);
  EXPECT_DOUBLE_EQ(census.max_layer_sparsity(), 0.5);
}

TEST(Census, DenseParametersCountAsDense) {
  Rng rng(8);
  nn::Sequential model("m");
  model.emplace<nn::Linear>("l", 8, 8, rng, /*bias=*/false);
  const ModelCensus census = take_census(model, 8);
  EXPECT_DOUBLE_EQ(census.global_sparsity, 0.0);
  EXPECT_EQ(census.layers[0].k_prime, 8);
}

// ---------------------------------------------------------------------------
// Algorithm-1 ordering: N:M pruning (line 2) precedes block scoring
// (lines 4-5), so elements the N:M step removes must not count toward
// their block's score.

TEST(CrispPruner, BlockScoresIgnoreNmPrunedElements) {
  // One 8x16 layer, 8x8 blocks -> a 1x2 block grid. With magnitude
  // saliency the scores are the |weights| we craft:
  //   block A (cols 0..7):  every 2:4 group is {6, 6, .1, .1}
  //       raw sum 12.2 / surviving-after-2:4 sum 12
  //   block B (cols 8..15): every group is {4, 4, 4, 4}
  //       raw sum 16  / surviving-after-2:4 sum 8
  // Raw scoring would prune A (12.2 < 16); the paper's ordering prunes B
  // (8 < 12) because half of B's mass is already gone after 2:4.
  Rng rng(9);
  nn::Sequential model("m");
  auto& lin = model.emplace<nn::Linear>("l", 16, 8, rng, /*bias=*/false);
  for (std::int64_t r = 0; r < 8; ++r)
    for (std::int64_t g = 0; g < 4; ++g) {
      float* group = lin.weight().value.data() + r * 16 + g * 4;
      if (g < 2) {  // block A groups
        group[0] = 6.0f;
        group[1] = 6.0f;
        group[2] = 0.1f;
        group[3] = 0.1f;
      } else {  // block B groups
        group[0] = group[1] = group[2] = group[3] = 4.0f;
      }
    }

  data::ClassPatternConfig dcfg;
  dcfg.num_classes = 2;
  dcfg.image_size = 2;  // unused by magnitude saliency; keeps data tiny
  dcfg.train_per_class = 2;
  dcfg.test_per_class = 1;
  const data::TrainTest split = data::make_class_pattern_dataset(dcfg);

  CrispConfig cfg;
  cfg.n = 2;
  cfg.m = 4;
  cfg.block = 8;
  cfg.target_sparsity = 0.75;  // 2:4 floor 0.5 -> prune 1 of 2 block-cols
  cfg.iterations = 1;
  cfg.finetune_epochs = 0;
  cfg.recovery_epochs = 0;
  cfg.saliency.criterion = "magnitude";
  CrispPruner pruner(model, cfg);
  Rng prng(3);
  pruner.run(split.train, prng);

  const Tensor& mask = lin.weight().mask;
  ASSERT_FALSE(mask.empty());
  for (std::int64_t r = 0; r < 8; ++r) {
    // Block B died entirely...
    for (std::int64_t c = 8; c < 16; ++c)
      EXPECT_EQ(mask[r * 16 + c], 0.0f) << "r" << r << " c" << c;
    // ...block A keeps exactly its 2:4 survivors (the two 6.0 entries).
    for (std::int64_t g = 0; g < 2; ++g) {
      const std::int64_t base = r * 16 + g * 4;
      EXPECT_EQ(mask[base + 0], 1.0f);
      EXPECT_EQ(mask[base + 1], 1.0f);
      EXPECT_EQ(mask[base + 2], 0.0f);
      EXPECT_EQ(mask[base + 3], 0.0f);
    }
  }
}

// Freeze regression: with freeze_at_target on, a layer that reached the
// final target stops being re-scored and re-masked on later iterations —
// verified through a counting criterion that records how many layers each
// saliency sweep actually visited.
std::vector<std::int64_t> g_counting_active_layers;

class CountingCriterion final : public SaliencyCriterion {
 public:
  const char* name() const override { return "test-counting"; }
  bool needs_gradients() const override { return false; }
  SaliencyMap compute(nn::Sequential& model, const data::Dataset& d,
                      const SaliencyConfig& cfg,
                      const std::vector<std::uint8_t>& active) override {
    const auto params = model.prunable_parameters();
    std::int64_t n = 0;
    for (std::size_t i = 0; i < params.size(); ++i)
      n += (active.empty() || active[i] != 0);
    g_counting_active_layers.push_back(n);
    return make_criterion("magnitude")->compute(model, d, cfg, active);
  }
};

TEST(CrispPruner, FreezeAtTargetSkipsFrozenLayers) {
  if (!has_criterion("test-counting"))
    register_criterion("test-counting", [] {
      return std::unique_ptr<SaliencyCriterion>(new CountingCriterion());
    });
  g_counting_active_layers.clear();

  PrunerFixture fx;
  CrispConfig cfg;
  cfg.n = 2;
  cfg.m = 4;
  cfg.block = 8;
  cfg.enable_block = false;  // pure N:M: the floor IS the target, so every
                             // 4-divisible layer lands exactly on it
  cfg.target_sparsity = 0.5;
  cfg.iterations = 2;
  cfg.finetune_epochs = 1;
  cfg.recovery_epochs = 0;
  cfg.freeze_at_target = true;
  cfg.saliency.criterion = "test-counting";
  CrispPruner pruner(*fx.model, cfg);
  Rng rng(7);
  const PruneReport report = pruner.run(fx.user_train, rng);

  const auto params = fx.model->prunable_parameters();
  const std::int64_t total = static_cast<std::int64_t>(params.size());

  // Iteration 1 never freezes (nothing is pruned yet); by iteration 2
  // every layer that landed exactly on the 2:4 floor is frozen.
  ASSERT_EQ(report.frozen_per_iteration.size(), 2u);
  EXPECT_EQ(report.frozen_per_iteration[0], 0);
  EXPECT_GT(report.frozen_per_iteration[1], 0);
  EXPECT_LE(report.frozen_per_iteration[1], total);

  // The saliency sweep visited exactly the unfrozen layers.
  ASSERT_EQ(g_counting_active_layers.size(), 2u);
  EXPECT_EQ(g_counting_active_layers[0], total);
  EXPECT_EQ(g_counting_active_layers[1],
            total - report.frozen_per_iteration[1]);

  // Freezing must not change the outcome here: both iterations target the
  // same floor, so the achieved sparsity is the N:M floor either way.
  EXPECT_NEAR(report.achieved_sparsity(), 0.5, 0.02);

  // Without the flag, no layer freezes and every sweep is full-width.
  g_counting_active_layers.clear();
  PrunerFixture fx2;
  cfg.freeze_at_target = false;
  CrispPruner pruner2(*fx2.model, cfg);
  Rng rng2(7);
  const PruneReport report2 = pruner2.run(fx2.user_train, rng2);
  ASSERT_EQ(report2.frozen_per_iteration.size(), 2u);
  EXPECT_EQ(report2.frozen_per_iteration[0], 0);
  EXPECT_EQ(report2.frozen_per_iteration[1], 0);
  ASSERT_EQ(g_counting_active_layers.size(), 2u);
  EXPECT_EQ(g_counting_active_layers[1], total);
}

}  // namespace
}  // namespace crisp::core
