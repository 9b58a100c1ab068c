// Training and evaluation loops.
#pragma once

#include <functional>

#include "data/dataset.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"

namespace crisp::nn {

struct TrainConfig {
  std::int64_t epochs = 5;
  std::int64_t batch_size = 32;  // paper §IV-A
  SgdConfig sgd;
  /// Multiply lr by this factor after every epoch (1 = constant).
  float lr_decay = 1.0f;
  bool verbose = false;
};

struct EpochStats {
  float loss = 0.0f;
  float accuracy = 0.0f;  ///< training accuracy of the epoch
};

/// Trains in place; returns per-epoch statistics. Deterministic given rng.
std::vector<EpochStats> train(Sequential& model, const data::Dataset& dataset,
                              const TrainConfig& cfg, Rng& rng);

/// Top-1 accuracy over the dataset. When `restrict_classes` is non-empty the
/// argmax is taken over those classes only — the personalized-deployment
/// metric: the user's device only ever answers among the preferred classes.
float evaluate(Sequential& model, const data::Dataset& dataset,
               std::int64_t batch_size = 64,
               const std::vector<std::int64_t>& restrict_classes = {});

/// The same metric over any eval forward that maps a batch of images to
/// logits — e.g. a packed serve::CompiledModel's run().
float evaluate(const std::function<Tensor(const Tensor&)>& forward,
               const data::Dataset& dataset, std::int64_t batch_size = 64,
               const std::vector<std::int64_t>& restrict_classes = {});

/// Mean cross-entropy over the dataset (eval mode).
float evaluate_loss(Sequential& model, const data::Dataset& dataset,
                    std::int64_t batch_size = 64);

}  // namespace crisp::nn
