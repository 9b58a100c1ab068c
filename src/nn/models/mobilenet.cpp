#include "nn/models/mobilenet.h"

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/pooling.h"

namespace crisp::nn {

InvertedResidual::InvertedResidual(std::string name, std::int64_t in_channels,
                                   std::int64_t out_channels,
                                   std::int64_t stride,
                                   std::int64_t expand_ratio, Rng& rng)
    : Layer(std::move(name)),
      out_channels_(out_channels),
      use_residual_(stride == 1 && in_channels == out_channels),
      main_(this->name() + ".main") {
  const std::int64_t hidden = in_channels * expand_ratio;

  if (expand_ratio != 1) {
    Conv2dSpec expand;
    expand.in_channels = in_channels;
    expand.out_channels = hidden;
    expand.kernel = 1;
    expand.padding = 0;
    main_.emplace<Conv2d>(this->name() + ".expand", expand, rng);
    main_.emplace<BatchNorm2d>(this->name() + ".expand_bn", hidden);
    main_.emplace<ReLU>(this->name() + ".expand_relu6", 6.0f);
  }

  Conv2dSpec dw;
  dw.in_channels = hidden;
  dw.out_channels = hidden;
  dw.kernel = 3;
  dw.stride = stride;
  dw.padding = 1;
  dw.groups = hidden;       // depthwise
  dw.prunable = false;      // ASP-style exclusion (see class comment)
  main_.emplace<Conv2d>(this->name() + ".dw", dw, rng);
  main_.emplace<BatchNorm2d>(this->name() + ".dw_bn", hidden);
  main_.emplace<ReLU>(this->name() + ".dw_relu6", 6.0f);

  Conv2dSpec project;
  project.in_channels = hidden;
  project.out_channels = out_channels;
  project.kernel = 1;
  project.padding = 0;
  main_.emplace<Conv2d>(this->name() + ".project", project, rng);
  main_.emplace<BatchNorm2d>(this->name() + ".project_bn", out_channels);
  // Linear bottleneck: no activation after projection.
}

Tensor InvertedResidual::forward(const Tensor& x, bool train) {
  Tensor y = main_.forward(x, train);
  if (use_residual_) y.add_(x);
  return y;
}

Tensor InvertedResidual::forward_eval(const Tensor& x,
                                      const KernelTable& table) const {
  Tensor y = main_.forward_eval(x, table);
  if (use_residual_) y.add_(x);
  return y;
}

Tensor InvertedResidual::backward(const Tensor& grad_out) {
  Tensor dx = main_.backward(grad_out);
  if (use_residual_) dx.add_(grad_out);
  return dx;
}

std::unique_ptr<Sequential> make_mobilenet_v2(const ModelConfig& cfg) {
  Rng rng(cfg.seed);
  auto model = std::make_unique<Sequential>("mobilenetv2");

  const std::int64_t stem = scaled_channels(32, cfg.width_mult);
  Conv2dSpec stem_spec;
  stem_spec.in_channels = 3;
  stem_spec.out_channels = stem;
  stem_spec.kernel = 3;
  stem_spec.padding = 1;
  stem_spec.prunable = cfg.prune_stem;
  model->emplace<Conv2d>("stem.conv", stem_spec, rng);
  model->emplace<BatchNorm2d>("stem.bn", stem);
  model->emplace<ReLU>("stem.relu6", 6.0f);

  // (expand t, channels c, repeats n, stride s) — the MobileNetV2 table with
  // early strides relaxed to 1 for small inputs (standard CIFAR adaptation).
  struct Row {
    std::int64_t t, c, n, s;
  };
  const Row rows[] = {{1, 16, 1, 1},  {6, 24, 2, 1},  {6, 32, 3, 2},
                      {6, 64, 4, 2},  {6, 96, 3, 1},  {6, 160, 3, 2},
                      {6, 320, 1, 1}};

  std::int64_t in_ch = stem;
  std::int64_t block_idx = 0;
  for (const Row& row : rows) {
    const std::int64_t out_ch = scaled_channels(row.c, cfg.width_mult);
    for (std::int64_t i = 0; i < row.n; ++i) {
      const std::int64_t stride = (i == 0) ? row.s : 1;
      auto& block = model->emplace<InvertedResidual>(
          "ir" + std::to_string(block_idx), in_ch, out_ch, stride, row.t, rng);
      in_ch = block.out_channels();
      ++block_idx;
    }
  }

  const std::int64_t head = scaled_channels(1280, cfg.width_mult);
  Conv2dSpec head_spec;
  head_spec.in_channels = in_ch;
  head_spec.out_channels = head;
  head_spec.kernel = 1;
  head_spec.padding = 0;
  model->emplace<Conv2d>("head.conv", head_spec, rng);
  model->emplace<BatchNorm2d>("head.bn", head);
  model->emplace<ReLU>("head.relu6", 6.0f);

  model->emplace<GlobalAvgPool>("gap");
  model->emplace<Linear>("fc", head, cfg.num_classes, rng, /*bias=*/true,
                         /*prunable=*/true);
  return model;
}

}  // namespace crisp::nn
