// deploy_packed — ship a CRISP-pruned model and serve it from the packed
// format.
//
// The cloud side prunes a universal model for the user's classes and writes
// a single artifact (CRISP hybrid format + carried dense state). The device
// side loads the artifact, reconstructs the network, compiles it into an
// immutable serving artifact (serve::CompiledModel — each packed layer's
// kernel is bound at compile time, the model itself is left untouched),
// scores it through CompiledModel::run, and answers a request stream
// through a batched serve::Engine. Predictions never touch a dense weight
// matrix — the software analogue of the CRISP-STC datapath. Along the way
// the program prints the storage breakdown the hybrid format was designed
// for (paper §III-A).
#include <cstdio>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "core/pruner.h"
#include "deploy/packed_model.h"
#include "nn/trainer.h"
#include "nn/zoo.h"
#include "serve/engine.h"

using namespace crisp;

int main() {
  std::printf("=== deploy_packed: prune -> pack -> ship -> serve ===\n\n");

  // --- cloud side -----------------------------------------------------------
  nn::ZooSpec spec;
  spec.model = nn::ModelKind::kVgg16;
  spec.dataset = nn::DatasetKind::kCifar100Like;
  spec.width_mult = 0.125f;
  spec.input_size = 16;
  spec.pretrain_epochs = 6;
  spec.train_per_class = 16;
  spec.test_per_class = 8;
  nn::PretrainedModel pm = nn::zoo_pretrained(spec, /*verbose=*/true);

  Rng rng(11);
  const auto classes = data::sample_user_classes(pm.data.train.num_classes, 5,
                                                 rng);
  const data::Dataset user_train = data::filter_classes(pm.data.train, classes);
  const data::Dataset user_test = data::filter_classes(pm.data.test, classes);

  core::CrispConfig cfg;
  cfg.n = 2;
  cfg.m = 4;
  cfg.block = 8;
  cfg.target_sparsity = 0.90;
  cfg.iterations = 3;
  cfg.finetune_epochs = 2;
  cfg.recovery_epochs = 8;
  core::CrispPruner pruner(*pm.model, cfg);
  const core::PruneReport report = pruner.run(user_train, rng);
  const float acc = nn::evaluate(*pm.model, user_test, 64, classes);
  std::printf("\npruned to %.1f%% sparsity, user-class accuracy %.1f%%\n",
              100 * report.achieved_sparsity(), 100 * acc);

  const deploy::PackedModel packed =
      deploy::PackedModel::pack(*pm.model, cfg.block, cfg.n, cfg.m);
  const deploy::PackedStats stats = packed.stats();
  std::printf("\nartifact breakdown:\n");
  std::printf("  dense model        %8.1f KiB\n",
              static_cast<double>(stats.model_dense_bits) / 8.0 / 1024.0);
  std::printf("  packed payload     %8.1f KiB\n",
              static_cast<double>(stats.packed_payload_bits) / 8.0 / 1024.0);
  std::printf("  packed metadata    %8.1f KiB\n",
              static_cast<double>(stats.packed_metadata_bits) / 8.0 / 1024.0);
  std::printf("  carried dense      %8.1f KiB\n",
              static_cast<double>(stats.carried_dense_bits) / 8.0 / 1024.0);
  std::printf("  shipped total      %8.1f KiB  (%.2fx of dense)\n",
              static_cast<double>(stats.total_bits()) / 8.0 / 1024.0,
              stats.compression());

  const std::string path = "/tmp/crisp_packed_model.bin";
  packed.save(path);
  std::printf("\nsaved artifact to %s\n", path.c_str());

  // --- device side ----------------------------------------------------------
  auto shipped = std::make_shared<const deploy::PackedModel>(
      deploy::PackedModel::load(path));
  nn::ModelConfig mcfg = spec.model_config();
  std::shared_ptr<nn::Sequential> device_model =
      nn::make_model(spec.model, mcfg);
  shipped->unpack_into(*device_model);
  const auto compiled = serve::CompiledModel::compile(device_model, shipped);
  std::printf("device: compiled model serves %zu layers from the packed "
              "format\n",
              compiled->packed_layers().size());

  const float served = nn::evaluate(
      [&](const Tensor& x) { return compiled->run(x); }, user_test, 64,
      classes);
  std::printf("device: served accuracy %.1f%% (cloud-side was %.1f%%)\n",
              100 * served, 100 * acc);
  std::printf("\n%s\n", served == acc ? "bit-exact deployment round trip"
                                      : "deployment drifted — investigate!");

  // --- serving: a request stream through the batched engine ----------------
  serve::EngineOptions eopts;
  eopts.max_batch = 16;
  eopts.flush_timeout = std::chrono::microseconds(500);
  serve::Engine engine(compiled, eopts);

  const std::int64_t c = user_test.channels(), h = user_test.height(),
                     w = user_test.width();
  std::vector<std::future<serve::Response>> futures;
  futures.reserve(static_cast<std::size_t>(user_test.size()));
  for (std::int64_t i = 0; i < user_test.size(); ++i)
    futures.push_back(engine.submit({user_test.sample(i).reshaped({c, h, w})}));

  std::int64_t correct = 0;
  for (std::int64_t i = 0; i < user_test.size(); ++i) {
    const serve::Response r =
        futures[static_cast<std::size_t>(i)].get();
    // Argmax over the user's classes, like nn::evaluate does.
    std::int64_t best = classes.front();
    for (const std::int64_t cls : classes)
      if (r.output[cls] > r.output[best]) best = cls;
    if (best == user_test.labels[static_cast<std::size_t>(i)]) ++correct;
  }
  const serve::EngineStats es = engine.stats();
  std::printf("\nengine: served %lld single-sample requests in %lld batched "
              "forwards (mean occupancy %.1f, mean queue wait %.0f us)\n",
              static_cast<long long>(es.requests),
              static_cast<long long>(es.batches), es.occupancy(),
              es.mean_queue_us());
  std::printf("engine: streaming accuracy %.1f%% — same model, now a "
              "concurrency-safe service\n",
              100.0 * static_cast<double>(correct) /
                  static_cast<double>(user_test.size()));
  return 0;
}
