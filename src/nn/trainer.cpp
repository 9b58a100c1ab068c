#include "nn/trainer.h"

#include <cstdio>

#include "nn/loss.h"

namespace crisp::nn {

std::vector<EpochStats> train(Sequential& model, const data::Dataset& dataset,
                              const TrainConfig& cfg, Rng& rng) {
  CRISP_CHECK(dataset.size() > 0, "training on an empty dataset");
  Sgd opt(model.parameters(), cfg.sgd);
  std::vector<EpochStats> stats;
  float lr = cfg.sgd.lr;

  for (std::int64_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    opt.set_lr(lr);
    double loss_sum = 0.0;
    std::int64_t correct = 0, seen = 0;
    for (const auto& batch : data::make_batches(dataset, cfg.batch_size, rng)) {
      opt.zero_grad();
      Tensor logits = model.forward(batch.images, /*train=*/true);
      LossResult loss = cross_entropy(logits, batch.labels);
      model.backward(loss.grad);
      opt.step();

      loss_sum += static_cast<double>(loss.value) * batch.size();
      const std::int64_t classes = logits.size(1);
      for (std::int64_t b = 0; b < batch.size(); ++b) {
        const float* row = logits.data() + b * classes;
        std::int64_t best = 0;
        for (std::int64_t c = 1; c < classes; ++c)
          if (row[c] > row[best]) best = c;
        correct += (best == batch.labels[static_cast<std::size_t>(b)]);
      }
      seen += batch.size();
    }
    EpochStats es;
    es.loss = static_cast<float>(loss_sum / static_cast<double>(seen));
    es.accuracy = static_cast<float>(correct) / static_cast<float>(seen);
    stats.push_back(es);
    if (cfg.verbose)
      std::printf("  epoch %2lld/%lld  loss %.4f  train-acc %.3f\n",
                  static_cast<long long>(epoch + 1),
                  static_cast<long long>(cfg.epochs), es.loss, es.accuracy);
    lr *= cfg.lr_decay;
  }
  return stats;
}

float evaluate(Sequential& model, const data::Dataset& dataset,
               std::int64_t batch_size,
               const std::vector<std::int64_t>& restrict_classes) {
  return evaluate(
      [&model](const Tensor& x) { return model.forward(x, /*train=*/false); },
      dataset, batch_size, restrict_classes);
}

float evaluate(const std::function<Tensor(const Tensor&)>& forward,
               const data::Dataset& dataset, std::int64_t batch_size,
               const std::vector<std::int64_t>& restrict_classes) {
  if (dataset.size() == 0) return 0.0f;
  Rng rng(0);  // unused: shuffle disabled
  std::int64_t correct = 0;
  for (const auto& batch :
       data::make_batches(dataset, batch_size, rng, /*shuffle=*/false)) {
    Tensor logits = forward(batch.images);
    const std::int64_t classes = logits.size(1);
    for (std::int64_t b = 0; b < batch.size(); ++b) {
      const float* row = logits.data() + b * classes;
      std::int64_t best = -1;
      if (restrict_classes.empty()) {
        best = 0;
        for (std::int64_t c = 1; c < classes; ++c)
          if (row[c] > row[best]) best = c;
      } else {
        for (std::int64_t c : restrict_classes) {
          CRISP_CHECK(c >= 0 && c < classes, "restricted class out of range");
          if (best < 0 || row[c] > row[best]) best = c;
        }
      }
      correct += (best == batch.labels[static_cast<std::size_t>(b)]);
    }
  }
  return static_cast<float>(correct) / static_cast<float>(dataset.size());
}

float evaluate_loss(Sequential& model, const data::Dataset& dataset,
                    std::int64_t batch_size) {
  if (dataset.size() == 0) return 0.0f;
  Rng rng(0);
  double loss_sum = 0.0;
  for (const auto& batch :
       data::make_batches(dataset, batch_size, rng, /*shuffle=*/false)) {
    Tensor logits = model.forward(batch.images, /*train=*/false);
    loss_sum += static_cast<double>(cross_entropy(logits, batch.labels).value) *
                batch.size();
  }
  return static_cast<float>(loss_sum / static_cast<double>(dataset.size()));
}

}  // namespace crisp::nn
