// Accelerator-simulator tests: workload tables, per-model sanity, the
// qualitative bands of Fig. 8, and cross-model orderings.
#include <gtest/gtest.h>

#include "accel/report.h"

namespace crisp::accel {
namespace {

AcceleratorConfig cfg() { return AcceleratorConfig::edge_default(); }
EnergyModel nrg() { return EnergyModel::edge_default(); }

SparsityProfile profile(std::int64_t n, std::int64_t m, std::int64_t block,
                        double kappa, double act_density = 0.6) {
  SparsityProfile p;
  p.n = n;
  p.m = m;
  p.block = block;
  p.activation_density = act_density;
  p.kept_cols_fraction =
      std::min(1.0, (1.0 - kappa) * static_cast<double>(m) /
                        static_cast<double>(n));
  return p;
}

GemmWorkload find_layer(const char* name) {
  for (const auto& w : resnet50_imagenet_workloads())
    if (w.name == name) return w;
  ADD_FAILURE() << "layer not found: " << name;
  return {};
}

// ---------------------------------------------------------------------------
// Workload tables.

TEST(Workloads, ResNet50TableIsComplete) {
  const auto all = resnet50_imagenet_workloads();
  ASSERT_EQ(all.size(), 54u);  // 53 convs + fc

  // Stem: 64 out channels, K = 3*7*7 = 147, P = 112^2.
  EXPECT_EQ(all.front().name, "conv1");
  EXPECT_EQ(all.front().s, 64);
  EXPECT_EQ(all.front().k, 147);
  EXPECT_EQ(all.front().p, 112 * 112);

  // Classifier.
  EXPECT_EQ(all.back().name, "fc");
  EXPECT_EQ(all.back().s, 1000);
  EXPECT_EQ(all.back().k, 2048);

  // Total MACs of ResNet-50 at 224px ≈ 4.1 GMACs (ours omits nothing big).
  std::int64_t total = 0;
  for (const auto& w : all) total += w.macs();
  EXPECT_GT(total, 3'500'000'000);
  EXPECT_LT(total, 4'500'000'000);
}

TEST(Workloads, KnownLayerShapes) {
  const GemmWorkload early = find_layer("conv2_1.conv2");
  EXPECT_EQ(early.s, 64);
  EXPECT_EQ(early.k, 64 * 9);
  EXPECT_EQ(early.p, 56 * 56);

  const GemmWorkload late = find_layer("conv5_1.conv2");
  EXPECT_EQ(late.s, 512);
  EXPECT_EQ(late.k, 512 * 9);
  EXPECT_EQ(late.p, 7 * 7);

  const GemmWorkload proj = find_layer("conv3_1.proj");
  EXPECT_EQ(proj.s, 512);
  EXPECT_EQ(proj.k, 256);
}

TEST(Workloads, RepresentativeSubset) {
  const auto reps = resnet50_representative_workloads();
  EXPECT_EQ(reps.size(), 9u);
  EXPECT_EQ(reps.back().name, "fc");
}

TEST(Workloads, SparsityProfileMath) {
  const SparsityProfile p = profile(2, 4, 32, 0.9);
  EXPECT_NEAR(p.weight_density(), 0.1, 1e-12);
  EXPECT_NEAR(p.weight_sparsity(), 0.9, 1e-12);
  const SparsityProfile d = SparsityProfile::dense();
  EXPECT_DOUBLE_EQ(d.weight_density(), 1.0);
}

// ---------------------------------------------------------------------------
// Dense baseline.

TEST(DenseModel, ComputeBoundOnBigConvs) {
  const DenseModel dense(cfg(), nrg());
  const GemmWorkload w = find_layer("conv2_1.conv2");
  const SimResult r = dense.simulate(w, SparsityProfile::dense());
  EXPECT_DOUBLE_EQ(r.executed_macs, static_cast<double>(w.macs()));
  EXPECT_NEAR(r.compute_cycles,
              static_cast<double>(w.macs()) / cfg().total_macs(), 1.0);
  EXPECT_GE(r.cycles, r.compute_cycles);
  EXPECT_GT(r.energy_pj, 0.0);
}

TEST(DenseModel, FcIsMemoryBound) {
  const DenseModel dense(cfg(), nrg());
  const SimResult r = dense.simulate(find_layer("fc"), SparsityProfile::dense());
  EXPECT_GT(r.dram_cycles, r.compute_cycles);
  EXPECT_DOUBLE_EQ(r.cycles, r.dram_cycles);
}

// ---------------------------------------------------------------------------
// NVIDIA STC.

TEST(NvidiaStc, CapsAtTwoX) {
  const DenseModel dense(cfg(), nrg());
  const NvidiaStc stc(cfg(), nrg());
  for (const auto& w : resnet50_representative_workloads()) {
    const double base = dense.simulate(w, SparsityProfile::dense()).cycles;
    for (std::int64_t n : {1, 2}) {
      const double c = stc.simulate(w, profile(n, 4, 32, 0.875)).cycles;
      EXPECT_LE(base / c, 2.05) << w.name << " " << n << ":4";
      EXPECT_GE(base / c, 0.95) << w.name << " " << n << ":4";
    }
  }
}

TEST(NvidiaStc, CannotExploitThreeFour) {
  const DenseModel dense(cfg(), nrg());
  const NvidiaStc stc(cfg(), nrg());
  const GemmWorkload w = find_layer("conv3_2.conv2");
  const double base = dense.simulate(w, SparsityProfile::dense()).cycles;
  const double c = stc.simulate(w, profile(3, 4, 32, 0.8)).cycles;
  EXPECT_NEAR(base / c, 1.0, 0.1);
}

TEST(NvidiaStc, OneFourWastesHalfItsSlots) {
  const NvidiaStc stc(cfg(), nrg());
  const SimResult r =
      stc.simulate(find_layer("conv2_1.conv2"), profile(1, 4, 32, 0.75));
  EXPECT_NEAR(r.utilization, 0.5, 1e-9);
}

// ---------------------------------------------------------------------------
// DSTC.

TEST(Dstc, EarlyLayersBeatLateLayers) {
  const DenseModel dense(cfg(), nrg());
  const Dstc dstc(cfg(), nrg());
  const SparsityProfile p = profile(2, 4, 32, 0.875);

  const GemmWorkload early = find_layer("conv2_1.conv2");
  const GemmWorkload late = find_layer("conv5_1.conv2");
  const double early_speedup =
      dense.simulate(early, SparsityProfile::dense()).cycles /
      dstc.simulate(early, p).cycles;
  const double late_speedup =
      dense.simulate(late, SparsityProfile::dense()).cycles /
      dstc.simulate(late, p).cycles;

  EXPECT_GT(early_speedup, late_speedup * 1.5)
      << "DSTC must degrade on late (weight-heavy) layers";
  EXPECT_GE(early_speedup, 3.0);
  EXPECT_LE(early_speedup, 9.0);
  EXPECT_LE(late_speedup, 3.0);
}

TEST(Dstc, ExploitsActivationSparsity) {
  const Dstc dstc(cfg(), nrg());
  const GemmWorkload w = find_layer("conv3_2.conv2");
  const double dense_act =
      dstc.simulate(w, profile(2, 4, 32, 0.8, 1.0)).executed_macs;
  const double sparse_act =
      dstc.simulate(w, profile(2, 4, 32, 0.8, 0.6)).executed_macs;
  EXPECT_NEAR(sparse_act / dense_act, 0.6, 1e-9);
}

// ---------------------------------------------------------------------------
// CRISP-STC.

TEST(CrispStc, SpeedupBandsOfFig8) {
  const DenseModel dense(cfg(), nrg());
  const CrispStc crisp(cfg(), nrg());
  // The paper's regime: global sparsity 80-90 %, block 64.
  struct Band {
    std::int64_t n;
    double lo, hi;
  };
  const Band bands[] = {{1, 7.0, 14.0}, {2, 5.0, 12.0}, {3, 2.0, 8.0}};
  for (const Band& band : bands) {
    double min_speedup = 1e30, max_speedup = 0.0;
    for (const auto& w : resnet50_representative_workloads()) {
      for (double kappa : {0.80, 0.85, 0.90}) {
        const SparsityProfile p = profile(band.n, 4, 64, kappa);
        if (p.kept_cols_fraction >= 1.0) continue;  // κ below N:M floor
        const double base = dense.simulate(w, SparsityProfile::dense()).cycles;
        const double c = crisp.simulate(w, p).cycles;
        min_speedup = std::min(min_speedup, base / c);
        max_speedup = std::max(max_speedup, base / c);
      }
    }
    // The *band* should be reachable: peak speedups reach the paper's lower
    // band edge, stay within ~1.6x of its upper edge (block-quantization of
    // K' overshoots the target sparsity on narrow layers), and no
    // configuration is slower than dense.
    EXPECT_GE(max_speedup, band.lo) << band.n << ":4";
    EXPECT_LE(max_speedup, band.hi * 1.6) << band.n << ":4";
    EXPECT_GE(min_speedup, 1.0) << band.n << ":4";
  }
}

TEST(CrispStc, MonotoneInBlockSparsity) {
  const CrispStc crisp(cfg(), nrg());
  const GemmWorkload w = find_layer("conv4_3.conv2");
  double last = 1e30;
  for (double kappa : {0.6, 0.7, 0.8, 0.9}) {
    const double c = crisp.simulate(w, profile(2, 4, 32, kappa)).cycles;
    EXPECT_LT(c, last) << "kappa " << kappa;
    last = c;
  }
}

TEST(CrispStc, LargerBlocksDispatchCheaper) {
  const CrispStc crisp(cfg(), nrg());
  const GemmWorkload w = find_layer("conv2_1.conv2");  // K = 576
  // κ chosen so kept columns quantize identically for every block size
  // (K'/K = 2/3 → 6, 12, 24 whole blocks at B = 64, 32, 16): the remaining
  // difference is pure per-block dispatch overhead.
  const double kappa = 1.0 - (2.0 / 3.0) * 0.5;
  const double c16 = crisp.simulate(w, profile(2, 4, 16, kappa)).cycles;
  const double c32 = crisp.simulate(w, profile(2, 4, 32, kappa)).cycles;
  const double c64 = crisp.simulate(w, profile(2, 4, 64, kappa)).cycles;
  EXPECT_LE(c64, c32);
  EXPECT_LE(c32, c16);
}

TEST(CrispStc, FullUtilizationAtBaseRatio) {
  // Uniform rows: no imbalance, no padded slots — and 2:4 is within the
  // selector's throughput, so the MAC array stays fully fed.
  const CrispStc crisp(cfg(), nrg());
  const SimResult r =
      crisp.simulate(find_layer("conv3_2.conv2"), profile(2, 4, 64, 0.8));
  EXPECT_DOUBLE_EQ(r.utilization, 1.0);
}

TEST(CrispStc, TighterRatioTurnsSelectorBound) {
  // 1:4 scans 4 candidates per useful MAC — beyond the MUX network's
  // throughput, so utilization drops below 1 and the speedup over 2:4 is
  // sublinear (Fig. 8: 14x vs 12x, not 2x apart).
  const CrispStc crisp(cfg(), nrg());
  const GemmWorkload w = find_layer("conv3_2.conv2");
  const SimResult r14 = crisp.simulate(w, profile(1, 4, 64, 0.9));
  EXPECT_LT(r14.utilization, 1.0);
  // Cross-check: cycles respect the selector floor exactly.
  AcceleratorConfig generous = cfg();
  generous.mux_selects_per_mac_cycle = 4.0;  // selector never binds
  const CrispStc wide(generous, nrg());
  const SimResult r14_wide = wide.simulate(w, profile(1, 4, 64, 0.9));
  EXPECT_LE(r14_wide.compute_cycles, r14.compute_cycles);
  EXPECT_DOUBLE_EQ(r14_wide.utilization, 1.0);
}

TEST(CrispStc, EnergyEfficiencyBeatsBaselines) {
  const auto reps = resnet50_representative_workloads();
  std::vector<SparsityProfile> profiles;
  for (std::size_t i = 0; i < reps.size(); ++i)
    profiles.push_back(profile(1, 4, 64, 0.9375));
  const auto rows = compare_accelerators(reps, profiles, cfg(), nrg());

  double best_crisp = 0.0;
  double total_dense = 0.0, total_nvidia = 0.0, total_dstc = 0.0,
         total_crisp = 0.0;
  for (const auto& row : rows) {
    EXPECT_GT(row.crisp_energy_eff(), row.nvidia_energy_eff())
        << row.workload.name;
    // Against DSTC the per-layer win requires block pruning to have room:
    // layers with only a handful of block columns fall back to N:M alone
    // and can locally lose to unstructured dual-side skipping.
    if (row.workload.k >= 4 * row.profile.block) {
      EXPECT_GT(row.crisp_energy_eff(), row.dstc_energy_eff())
          << row.workload.name;
    }
    best_crisp = std::max(best_crisp, row.crisp_energy_eff());
    total_dense += row.dense.energy_pj;
    total_nvidia += row.nvidia.energy_pj;
    total_dstc += row.dstc.energy_pj;
    total_crisp += row.crisp.energy_pj;
  }
  // Aggregate over the representative layers: CRISP is the most efficient.
  EXPECT_LT(total_crisp, total_dstc);
  EXPECT_LT(total_crisp, total_nvidia);
  EXPECT_LT(total_crisp, total_dense);
  // "Up to 30x" in the paper; our model lands deep double digits.
  EXPECT_GE(best_crisp, 12.0);
  EXPECT_LE(best_crisp, 45.0);
}

TEST(CrispStc, BeatsNvidiaOnMatchedPattern) {
  const DenseModel dense(cfg(), nrg());
  const NvidiaStc nvidia(cfg(), nrg());
  const CrispStc crisp(cfg(), nrg());
  const SparsityProfile p = profile(2, 4, 64, 0.875);
  for (const auto& w : resnet50_representative_workloads()) {
    const double base = dense.simulate(w, SparsityProfile::dense()).cycles;
    const double crisp_speedup = base / crisp.simulate(w, p).cycles;
    const double nvidia_speedup = base / nvidia.simulate(w, p).cycles;
    if (w.k >= 4 * p.block) {
      EXPECT_GT(crisp_speedup, nvidia_speedup) << w.name;
    } else {
      // Narrow reduction: block pruning has no room, CRISP degenerates to
      // its N:M path and must at worst match NVIDIA within dispatch noise.
      EXPECT_GT(crisp_speedup, 0.9 * nvidia_speedup) << w.name;
    }
  }
}

// ---------------------------------------------------------------------------
// Report harness.

TEST(Report, RampProfilesSpanKappaRange) {
  const auto profiles = ramp_profiles(5, 2, 4, 32, 0.8, 0.9);
  ASSERT_EQ(profiles.size(), 5u);
  EXPECT_NEAR(profiles.front().weight_sparsity(), 0.8, 1e-9);
  EXPECT_NEAR(profiles.back().weight_sparsity(), 0.9, 1e-9);
  for (std::size_t i = 1; i < profiles.size(); ++i)
    EXPECT_LE(profiles[i].kept_cols_fraction,
              profiles[i - 1].kept_cols_fraction);
}

TEST(Report, CompareRunsAllModels) {
  const auto reps = resnet50_representative_workloads();
  const auto profiles = ramp_profiles(static_cast<std::int64_t>(reps.size()),
                                      2, 4, 32, 0.8, 0.9);
  const auto rows = compare_accelerators(reps, profiles, cfg(), nrg());
  ASSERT_EQ(rows.size(), reps.size());
  for (const auto& row : rows) {
    EXPECT_GT(row.dense.cycles, 0.0);
    EXPECT_GT(row.nvidia.cycles, 0.0);
    EXPECT_GT(row.dstc.cycles, 0.0);
    EXPECT_GT(row.crisp.cycles, 0.0);
    EXPECT_GT(row.crisp_speedup(), 1.0) << row.workload.name;
  }
  EXPECT_THROW(compare_accelerators(reps, {}, cfg(), nrg()),
               std::runtime_error);
}

}  // namespace
}  // namespace crisp::accel
