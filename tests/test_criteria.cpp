// Registry-wide criterion battery.
//
// Every registered saliency criterion — including ones registered at
// runtime — must (a) produce bit-identical scores at 1, 2, and 8 threads
// (the repo's determinism contract on the parallel_for/deterministic_reduce
// substrate) and (b) rank sanely: scaling all weights of a block up scales
// that block's score monotonically for every weight-dependent criterion.
// Plus the registry mechanics (unknown names throw and list the menu,
// custom registration works, "auto" is rejected by estimate_saliency but
// resolved by the selector), the frozen-layer skip contract, and the
// loss-aware auto-selector's determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "core/criterion_select.h"
#include "core/saliency.h"
#include "data/class_pattern.h"
#include "data/dataset.h"
#include "kernels/parallel_for.h"
#include "nn/activations.h"
#include "nn/linear.h"
#include "nn/models/common.h"
#include "nn/sequential.h"
#include "sparse/block.h"
#include "thread_guard.h"

namespace crisp::core {
namespace {

using crisp::testing::ThreadGuard;

float max_diff(const Tensor& a, const Tensor& b) {
  EXPECT_TRUE(a.same_shape(b));
  float m = 0.0f;
  for (std::int64_t i = 0; i < a.numel(); ++i)
    m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

data::TrainTest tiny_split() {
  data::ClassPatternConfig dcfg;
  dcfg.num_classes = 4;
  dcfg.image_size = 8;
  dcfg.train_per_class = 8;
  dcfg.test_per_class = 2;
  return data::make_class_pattern_dataset(dcfg);
}

std::unique_ptr<nn::Sequential> tiny_conv_model() {
  nn::ModelConfig mcfg;
  mcfg.num_classes = 4;
  mcfg.input_size = 8;
  mcfg.width_mult = 0.125f;
  return nn::make_vgg16(mcfg);
}

SaliencyMap scores_at(int threads, const data::Dataset& calib,
                      const std::string& criterion) {
  kernels::set_num_threads(threads);
  auto model = tiny_conv_model();
  SaliencyConfig cfg;
  cfg.criterion = criterion;
  cfg.batch_size = 8;
  cfg.max_batches = 2;
  return estimate_saliency(*model, calib, cfg);
}

// (a) Bit-identity at 1/2/8 threads — for EVERY registered criterion, so a
// future registration is covered the moment it lands.
TEST(Criteria, EveryRegisteredCriterionThreadInvariant) {
  ThreadGuard guard;
  const data::TrainTest split = tiny_split();
  for (const std::string& name : criterion_names()) {
    const SaliencyMap serial = scores_at(1, split.train, name);
    for (const int t : {2, 8}) {
      const SaliencyMap threaded = scores_at(t, split.train, name);
      ASSERT_EQ(serial.size(), threaded.size());
      for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(max_diff(serial[i], threaded[i]), 0.0f)
            << "criterion '" << name << "', parameter " << i << ", " << t
            << " threads";
    }
  }
}

// (b) Ranking sanity: multiplying all weights of one block by g > 1 must
// not DECREASE that block's aggregate score for any weight-dependent
// criterion (strictly increase for the built-ins). "random" is exempt: its
// scores are weight-independent by design.
TEST(Criteria, ScalingABlockScalesItsScoreMonotonically) {
  const std::int64_t block = 4, rows = 8;
  const std::int64_t cols = 48;  // 3 channels x 4 x 4, flattened
  const std::int64_t target_r = 1, target_c = 2;  // block-grid coordinates
  const sparse::BlockGrid grid{rows, cols, block};

  const data::TrainTest split = [] {
    data::ClassPatternConfig c;
    c.num_classes = 4;
    c.image_size = 4;
    c.train_per_class = 8;
    c.test_per_class = 2;
    return data::make_class_pattern_dataset(c);
  }();

  for (const std::string& name : criterion_names()) {
    if (name == "random") continue;  // weight-independent by design
    auto block_score = [&](float gain) {
      Rng rng(11);
      nn::Sequential model("m");
      model.emplace<nn::Flatten>("flat");
      auto& hid = model.emplace<nn::Linear>("hid", cols, rows, rng);
      model.emplace<nn::ReLU>("relu");
      model.emplace<nn::Linear>("out", rows, 4, rng);
      // Scale the target block's weights of the hidden layer.
      nn::Parameter& w = hid.weight();
      for (std::int64_t r = target_r * block; r < (target_r + 1) * block; ++r)
        for (std::int64_t c = target_c * block; c < (target_c + 1) * block;
             ++c)
          w.value[r * cols + c] *= gain;
      SaliencyConfig cfg;
      cfg.criterion = name;
      cfg.batch_size = 8;
      cfg.max_batches = 2;
      const SaliencyMap scores = estimate_saliency(model, split.train, cfg);
      const Tensor bs = sparse::block_scores(
          as_matrix(scores[0], rows, cols), grid);
      return bs[target_r * grid.grid_cols() + target_c];
    };
    const float base = block_score(1.0f);
    const float scaled = block_score(2.0f);
    const float more = block_score(4.0f);
    EXPECT_GT(scaled, base) << "criterion '" << name << "'";
    EXPECT_GT(more, scaled) << "criterion '" << name << "'";
  }
}

// Registry mechanics.
TEST(Criteria, UnknownNameThrowsAndListsMenu) {
  auto model = tiny_conv_model();
  const data::TrainTest split = tiny_split();
  SaliencyConfig cfg;
  cfg.criterion = "no-such-criterion";
  try {
    estimate_saliency(*model, split.train, cfg);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no-such-criterion"), std::string::npos);
    EXPECT_NE(msg.find("cass"), std::string::npos);  // menu is listed
  }
}

TEST(Criteria, AutoIsRejectedByEstimateSaliency) {
  auto model = tiny_conv_model();
  const data::TrainTest split = tiny_split();
  SaliencyConfig cfg;
  cfg.criterion = "auto";
  EXPECT_THROW(estimate_saliency(*model, split.train, cfg),
               std::runtime_error);
}

TEST(Criteria, RuntimeRegistrationIsServedAndCovered) {
  // A custom criterion registered at runtime is immediately selectable by
  // name and shows up in criterion_names() (so the thread-invariance test
  // above would cover it too).
  class Constant final : public SaliencyCriterion {
   public:
    const char* name() const override { return "test-constant"; }
    bool needs_gradients() const override { return false; }
    SaliencyMap compute(nn::Sequential& model, const data::Dataset&,
                        const SaliencyConfig&,
                        const std::vector<std::uint8_t>& active) override {
      auto params = model.prunable_parameters();
      SaliencyMap scores(params.size());
      for (std::size_t i = 0; i < params.size(); ++i)
        if (active.empty() || active[i] != 0)
          scores[i] = Tensor::ones(params[i]->value.shape());
      return scores;
    }
  };
  register_criterion("test-constant", [] {
    return std::unique_ptr<SaliencyCriterion>(new Constant());
  });
  EXPECT_TRUE(has_criterion("test-constant"));
  const auto names = criterion_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "test-constant"),
            names.end());

  auto model = tiny_conv_model();
  data::Dataset empty;
  SaliencyConfig cfg;
  cfg.criterion = "test-constant";
  const SaliencyMap scores = estimate_saliency(*model, empty, cfg);
  for (const Tensor& s : scores) {
    ASSERT_GT(s.numel(), 0);
    EXPECT_EQ(s.min(), 1.0f);
    EXPECT_EQ(s.max(), 1.0f);
  }
}

// The frozen-layer skip contract: inactive layers come back as empty
// tensors and active layers' scores are unchanged by the bitmask.
TEST(Criteria, ActiveBitmaskSkipsExactlyTheFrozenLayers) {
  const data::TrainTest split = tiny_split();
  for (const std::string& name : criterion_names()) {
    auto model = tiny_conv_model();
    auto params = model->prunable_parameters();
    ASSERT_GE(params.size(), 2u);
    SaliencyConfig cfg;
    cfg.criterion = name;
    cfg.batch_size = 8;
    cfg.max_batches = 2;

    std::vector<std::uint8_t> active(params.size(), 1);
    active[0] = 0;
    const SaliencyMap partial =
        estimate_saliency(*model, split.train, cfg, active);
    EXPECT_EQ(partial[0].numel(), 0) << name;
    for (std::size_t i = 1; i < partial.size(); ++i)
      EXPECT_GT(partial[i].numel(), 0) << name << " layer " << i;

    // Same model, full sweep: the active layers' scores must be identical
    // (the skip must not perturb what IS computed). Gradient-based sweeps
    // advance BatchNorm statistics, so compare on a fresh model.
    auto model2 = tiny_conv_model();
    const SaliencyMap full = estimate_saliency(*model2, split.train, cfg);
    for (std::size_t i = 1; i < partial.size(); ++i)
      EXPECT_EQ(max_diff(partial[i], full[i]), 0.0f)
          << name << " layer " << i;
  }
}

// estimate_saliency_selected composes per-layer criteria and honors the
// empty-name (frozen) sentinel.
TEST(Criteria, SelectedCompositionMatchesPerCriterionRuns) {
  const data::TrainTest split = tiny_split();
  auto model = tiny_conv_model();
  auto params = model->prunable_parameters();
  ASSERT_GE(params.size(), 3u);
  SaliencyConfig cfg;
  cfg.batch_size = 8;
  cfg.max_batches = 2;

  std::vector<std::string> per_layer(params.size(), "magnitude");
  per_layer[1] = "";  // frozen
  const SaliencyMap sel =
      estimate_saliency_selected(*model, split.train, cfg, per_layer);
  EXPECT_EQ(sel[1].numel(), 0);

  cfg.criterion = "magnitude";
  auto model2 = tiny_conv_model();
  const SaliencyMap mag = estimate_saliency(*model2, split.train, cfg);
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (i == 1) continue;
    EXPECT_EQ(max_diff(sel[i], mag[i]), 0.0f) << "layer " << i;
  }
}

// The loss-aware auto-selector: deterministic, restores the model exactly,
// and the assignment is thread-count independent.
TEST(Criteria, AutoSelectorDeterministicAndRestoresModel) {
  ThreadGuard guard;
  const data::TrainTest split = tiny_split();

  auto run = [&](int threads) {
    kernels::set_num_threads(threads);
    auto model = tiny_conv_model();
    AutoSelectConfig cfg;
    cfg.candidates = {"cass", "lasso", "taylor"};
    cfg.saliency.batch_size = 8;
    cfg.saliency.max_batches = 2;
    cfg.batch_size = 8;
    const TensorMap before = model->state_dict();
    const AutoSelection sel = auto_select_criteria(*model, split.train, cfg);
    const TensorMap after = model->state_dict();
    EXPECT_EQ(before.size(), after.size());
    for (const auto& [name, t] : before) {
      auto it = after.find(name);
      EXPECT_NE(it, after.end()) << name;
      if (it != after.end()) {
        EXPECT_EQ(max_diff(t, it->second), 0.0f) << name;
      }
    }
    return sel;
  };

  const AutoSelection serial = run(1);
  ASSERT_FALSE(serial.per_layer.empty());
  for (const std::string& choice : serial.per_layer)
    EXPECT_NE(std::find(serial.candidates.begin(), serial.candidates.end(),
                        choice),
              serial.candidates.end());
  const AutoSelection again = run(1);
  EXPECT_EQ(serial.per_layer, again.per_layer);
  const AutoSelection threaded = run(8);
  EXPECT_EQ(serial.per_layer, threaded.per_layer);
}

}  // namespace
}  // namespace crisp::core
