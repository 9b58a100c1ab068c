// Property suites for the accelerator models and the design-space
// explorer: sanity invariants that must hold across the whole parameter
// space, not just the hand-picked points of test_accel.cpp.
#include <gtest/gtest.h>

#include <tuple>

#include "accel/dse.h"
#include "accel/report.h"

namespace crisp::accel {
namespace {

AcceleratorConfig cfg() { return AcceleratorConfig::edge_default(); }
EnergyModel nrg() { return EnergyModel::edge_default(); }

SparsityProfile profile(std::int64_t n, std::int64_t m, std::int64_t block,
                        double kept, double act = 0.6) {
  SparsityProfile p;
  p.n = n;
  p.m = m;
  p.block = block;
  p.kept_cols_fraction = kept;
  p.activation_density = act;
  return p;
}

// ---------------------------------------------------------------------------
// Every model, every layer, a grid of profiles: basic well-formedness.

using ModelCase = std::tuple<int /*model id*/, int /*n*/, double /*kept*/>;

class AllModelsProperty : public ::testing::TestWithParam<ModelCase> {
 protected:
  AcceleratorModelPtr make_model(int id) const {
    switch (id) {
      case 0: return std::make_unique<DenseModel>(cfg(), nrg());
      case 1: return std::make_unique<NvidiaStc>(cfg(), nrg());
      case 2: return std::make_unique<Dstc>(cfg(), nrg());
      default: return std::make_unique<CrispStc>(cfg(), nrg());
    }
  }
};

TEST_P(AllModelsProperty, ResultsAreWellFormed) {
  const auto [id, n, kept] = GetParam();
  const auto model = make_model(id);
  const SparsityProfile p = profile(n, 4, 64, kept);
  for (const GemmWorkload& w : resnet50_imagenet_workloads()) {
    const SimResult r = model->simulate(w, p);
    ASSERT_GT(r.cycles, 0.0) << model->name() << " " << w.name;
    ASSERT_GT(r.energy_pj, 0.0) << model->name() << " " << w.name;
    // Cycles are a roofline: never below any single component.
    ASSERT_GE(r.cycles + 1e-9, r.dram_cycles);
    ASSERT_GE(r.cycles + 1e-9, r.smem_cycles);
    ASSERT_GE(r.cycles + 1e-9, r.compute_cycles);
    // No model ever issues more MACs than the dense computation holds
    // (DSTC may count merge work as overhead cycles, never as MACs).
    ASSERT_LE(r.executed_macs,
              static_cast<double>(w.macs()) + 1e-6);
    ASSERT_GE(r.utilization, 0.0);
    ASSERT_LE(r.utilization, 1.0 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AllModelsProperty,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(1, 2, 3),
                       ::testing::Values(0.125, 0.25, 0.5, 1.0)));

// ---------------------------------------------------------------------------
// CRISP-STC orderings that must hold on every layer.

class CrispOrderingProperty : public ::testing::TestWithParam<int> {
 protected:
  GemmWorkload layer() const {
    return resnet50_representative_workloads()
        [static_cast<std::size_t>(GetParam())];
  }
};

TEST_P(CrispOrderingProperty, MoreKeptColumnsNeverFaster) {
  const CrispStc crisp(cfg(), nrg());
  const GemmWorkload w = layer();
  double last_cycles = 0.0;
  for (const double kept : {0.125, 0.25, 0.5, 0.75, 1.0}) {
    const double c = crisp.simulate(w, profile(2, 4, 64, kept)).cycles;
    ASSERT_GE(c + 1e-9, last_cycles) << w.name << " kept " << kept;
    last_cycles = c;
  }
}

TEST_P(CrispOrderingProperty, SparseNeverSlowerThanDenseModel) {
  const CrispStc crisp(cfg(), nrg());
  const DenseModel dense(cfg(), nrg());
  const GemmWorkload w = layer();
  const double base = dense.simulate(w, SparsityProfile::dense()).cycles;
  for (const int n : {1, 2, 3})
    for (const double kept : {0.125, 0.25, 0.5}) {
      const double c = crisp.simulate(w, profile(n, 4, 64, kept)).cycles;
      ASSERT_LE(c, base * (1.0 + 1e-9))
          << w.name << " " << n << ":4 kept " << kept;
    }
}

TEST_P(CrispOrderingProperty, TighterNmNeverSlower) {
  // At a fixed block-kept fraction, fewer weights per group can only help
  // (the selector bound saturates, never inverts, the ordering).
  const CrispStc crisp(cfg(), nrg());
  const GemmWorkload w = layer();
  for (const double kept : {0.25, 0.5}) {
    const double c1 = crisp.simulate(w, profile(1, 4, 64, kept)).cycles;
    const double c2 = crisp.simulate(w, profile(2, 4, 64, kept)).cycles;
    const double c3 = crisp.simulate(w, profile(3, 4, 64, kept)).cycles;
    ASSERT_LE(c1, c2 * (1.0 + 1e-9)) << w.name << " kept " << kept;
    ASSERT_LE(c2, c3 * (1.0 + 1e-9)) << w.name << " kept " << kept;
  }
}

INSTANTIATE_TEST_SUITE_P(RepresentativeLayers, CrispOrderingProperty,
                         ::testing::Range(0, 9));

// ---------------------------------------------------------------------------
// Energy-model structure.

TEST(EnergyModelProperty, LeakageGrowsWithFabricSize) {
  const GemmWorkload w = resnet50_representative_workloads()[2];
  // A bandwidth-bound layer: enlarging the MAC array cannot reduce cycles,
  // so the bigger fabric must cost more energy (leaking area x same time).
  AcceleratorConfig small = cfg();
  small.dram_bw_bytes_per_cycle = 0.25;  // force DRAM-bound
  AcceleratorConfig big = small;
  big.tensor_cores *= 4;
  const DenseModel small_model(small, nrg());
  const DenseModel big_model(big, nrg());
  const SimResult rs = small_model.simulate(w, SparsityProfile::dense());
  const SimResult rb = big_model.simulate(w, SparsityProfile::dense());
  EXPECT_DOUBLE_EQ(rs.cycles, rb.cycles);
  EXPECT_GT(rb.energy_pj, rs.energy_pj);
}

TEST(EnergyModelProperty, SmemAccessCostScalesWithCapacity) {
  // A late layer whose activation working set fits 256 KB comfortably: the
  // bigger SMEM buys nothing (no spill to remove), so its higher per-access
  // cost and leakage must show up as strictly more energy. (Early spilling
  // layers are the opposite trade — bigger SMEM removes 80 pJ/B DRAM
  // traffic — which is exactly why capacity is a DSE axis and not a freebie.)
  const auto reps = resnet50_representative_workloads();
  const GemmWorkload w = reps.back();  // the classifier
  AcceleratorConfig base = cfg();
  AcceleratorConfig huge = base;
  huge.smem_kbytes = base.smem_kbytes * 4;  // sqrt-scaling: 2x pJ/B
  const CrispStc m_base(base, nrg());
  const CrispStc m_huge(huge, nrg());
  const SparsityProfile p = profile(2, 4, 64, 0.5);
  EXPECT_GT(m_huge.simulate(w, p).energy_pj, m_base.simulate(w, p).energy_pj);
}

// ---------------------------------------------------------------------------
// Design-space exploration.

TEST(Dse, SweepCardinalityIsKnobProduct) {
  const auto net = resnet50_representative_workloads();
  const auto profiles = ramp_kept_profiles(
      static_cast<std::int64_t>(net.size()), 2, 4, 64, 0.5, 0.25);
  DseKnobs knobs;
  knobs.tensor_cores = {2, 4};
  knobs.macs_per_core = {32, 64, 128};
  knobs.smem_bw_bytes_per_cycle = {32.0, 64.0};
  const auto points = sweep_configs(cfg(), nrg(), knobs, net, profiles);
  EXPECT_EQ(points.size(), 2u * 3u * 2u);
  for (const DsePoint& p : points) {
    EXPECT_GT(p.cycles, 0.0);
    EXPECT_GT(p.energy_pj, 0.0);
    EXPECT_FALSE(p.label().empty());
  }
}

TEST(Dse, EmptyKnobsFallBackToBaseConfig) {
  const auto net = resnet50_representative_workloads();
  const auto profiles = ramp_kept_profiles(
      static_cast<std::int64_t>(net.size()), 2, 4, 64, 0.5, 0.25);
  const auto points = sweep_configs(cfg(), nrg(), DseKnobs{}, net, profiles);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].config.tensor_cores, cfg().tensor_cores);
  EXPECT_EQ(points[0].config.smem_kbytes, cfg().smem_kbytes);
}

TEST(Dse, ParetoFrontIsExactlyTheNonDominatedSet) {
  const auto net = resnet50_representative_workloads();
  const auto profiles = ramp_kept_profiles(
      static_cast<std::int64_t>(net.size()), 2, 4, 64, 0.5, 0.25);
  DseKnobs knobs;
  knobs.tensor_cores = {2, 4, 8};
  knobs.macs_per_core = {32, 64, 128};
  knobs.smem_kbytes = {128, 256, 512};
  const auto points = sweep_configs(cfg(), nrg(), knobs, net, profiles);
  const auto front = pareto_front(points);
  ASSERT_FALSE(front.empty());

  auto dominates = [&](std::size_t a, std::size_t b) {
    return points[a].cycles <= points[b].cycles &&
           points[a].energy_pj <= points[b].energy_pj &&
           (points[a].cycles < points[b].cycles ||
            points[a].energy_pj < points[b].energy_pj);
  };
  for (std::size_t i = 0; i < points.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < points.size(); ++j)
      if (j != i && dominates(j, i)) dominated = true;
    const bool on_front =
        std::find(front.begin(), front.end(), i) != front.end();
    // Non-dominated <=> on the front (ties collapse to one representative,
    // so check the cheap direction: front members are never dominated and
    // dominated points are never front members).
    if (on_front) {
      EXPECT_FALSE(dominated) << "front point " << i << " dominated";
    }
    if (dominated) {
      EXPECT_FALSE(on_front) << "dominated point " << i << " on front";
    }
  }
}

TEST(Dse, FrontSortedByCyclesWithDecreasingEnergy) {
  const auto net = resnet50_representative_workloads();
  const auto profiles = ramp_kept_profiles(
      static_cast<std::int64_t>(net.size()), 2, 4, 64, 0.5, 0.25);
  DseKnobs knobs;
  knobs.tensor_cores = {2, 4, 8};
  knobs.smem_bw_bytes_per_cycle = {16.0, 64.0};
  const auto points = sweep_configs(cfg(), nrg(), knobs, net, profiles);
  const auto front = pareto_front(points);
  for (std::size_t i = 1; i < front.size(); ++i) {
    EXPECT_GE(points[front[i]].cycles, points[front[i - 1]].cycles);
    EXPECT_LT(points[front[i]].energy_pj, points[front[i - 1]].energy_pj);
  }
}

TEST(Dse, MoreBandwidthNeverSlower) {
  const auto net = resnet50_imagenet_workloads();
  const auto profiles = ramp_kept_profiles(
      static_cast<std::int64_t>(net.size()), 1, 4, 64, 0.5, 0.12);
  DseKnobs knobs;
  knobs.smem_bw_bytes_per_cycle = {8.0, 16.0, 32.0, 64.0, 128.0};
  const auto points = sweep_configs(cfg(), nrg(), knobs, net, profiles);
  for (std::size_t i = 1; i < points.size(); ++i)
    EXPECT_LE(points[i].cycles, points[i - 1].cycles * (1.0 + 1e-9))
        << "smem bw step " << i;
}

TEST(Dse, RejectsMisalignedProfiles) {
  const auto net = resnet50_representative_workloads();
  const std::vector<SparsityProfile> too_few(net.size() - 1,
                                             SparsityProfile::dense());
  EXPECT_THROW(sweep_configs(cfg(), nrg(), DseKnobs{}, net, too_few),
               std::runtime_error);
}

}  // namespace
}  // namespace crisp::accel
