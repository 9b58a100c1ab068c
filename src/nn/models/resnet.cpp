#include "nn/models/resnet.h"

#include <string>

#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/pooling.h"

namespace crisp::nn {

const char* model_kind_name(ModelKind kind) {
  switch (kind) {
    case ModelKind::kResNet50: return "resnet50";
    case ModelKind::kVgg16: return "vgg16";
    case ModelKind::kMobileNetV2: return "mobilenetv2";
  }
  return "unknown";
}

std::unique_ptr<Sequential> make_model(ModelKind kind, const ModelConfig& cfg) {
  switch (kind) {
    case ModelKind::kResNet50: return make_resnet50(cfg);
    case ModelKind::kVgg16: return make_vgg16(cfg);
    case ModelKind::kMobileNetV2: return make_mobilenet_v2(cfg);
  }
  CRISP_CHECK(false, "unknown model kind");
  return nullptr;
}

Bottleneck::Bottleneck(std::string name, std::int64_t in_channels,
                       std::int64_t planes, std::int64_t stride, Rng& rng)
    : Layer(std::move(name)),
      out_channels_(planes * kExpansion),
      has_projection_(stride != 1 || in_channels != planes * kExpansion),
      main_(this->name() + ".main"),
      projection_(this->name() + ".proj"),
      relu_out_(this->name() + ".relu_out") {
  Conv2dSpec c1;
  c1.in_channels = in_channels;
  c1.out_channels = planes;
  c1.kernel = 1;
  c1.padding = 0;
  main_.emplace<Conv2d>(this->name() + ".conv1", c1, rng);
  main_.emplace<BatchNorm2d>(this->name() + ".bn1", planes);
  main_.emplace<ReLU>(this->name() + ".relu1");

  Conv2dSpec c2;
  c2.in_channels = planes;
  c2.out_channels = planes;
  c2.kernel = 3;
  c2.stride = stride;
  c2.padding = 1;
  main_.emplace<Conv2d>(this->name() + ".conv2", c2, rng);
  main_.emplace<BatchNorm2d>(this->name() + ".bn2", planes);
  main_.emplace<ReLU>(this->name() + ".relu2");

  Conv2dSpec c3;
  c3.in_channels = planes;
  c3.out_channels = out_channels_;
  c3.kernel = 1;
  c3.padding = 0;
  main_.emplace<Conv2d>(this->name() + ".conv3", c3, rng);
  main_.emplace<BatchNorm2d>(this->name() + ".bn3", out_channels_);

  if (has_projection_) {
    Conv2dSpec pd;
    pd.in_channels = in_channels;
    pd.out_channels = out_channels_;
    pd.kernel = 1;
    pd.stride = stride;
    pd.padding = 0;
    projection_.emplace<Conv2d>(this->name() + ".proj_conv", pd, rng);
    projection_.emplace<BatchNorm2d>(this->name() + ".proj_bn", out_channels_);
  }
}

Tensor Bottleneck::forward(const Tensor& x, bool train) {
  Tensor main_out = main_.forward(x, train);
  Tensor shortcut = has_projection_ ? projection_.forward(x, train) : x;
  main_out.add_(shortcut);
  if (train) cached_input_ = x;
  return relu_out_.forward(main_out, train);
}

Tensor Bottleneck::forward_eval(const Tensor& x,
                                const KernelTable& table) const {
  Tensor main_out = main_.forward_eval(x, table);
  main_out.add_(has_projection_ ? projection_.forward_eval(x, table) : x);
  return relu_out_.forward_eval(main_out, table);
}

Tensor Bottleneck::backward(const Tensor& grad_out) {
  Tensor g = relu_out_.backward(grad_out);
  Tensor dx = main_.backward(g);
  if (has_projection_) {
    dx.add_(projection_.backward(g));
  } else {
    dx.add_(g);
  }
  return dx;
}

std::vector<Parameter*> Bottleneck::parameters() {
  auto ps = main_.parameters();
  auto pr = projection_.parameters();
  ps.insert(ps.end(), pr.begin(), pr.end());
  return ps;
}

std::vector<NamedBuffer> Bottleneck::buffers() {
  auto bs = main_.buffers();
  auto br = projection_.buffers();
  bs.insert(bs.end(), br.begin(), br.end());
  return bs;
}

std::vector<Layer*> Bottleneck::children() {
  std::vector<Layer*> kids{&main_};
  if (has_projection_) kids.push_back(&projection_);
  kids.push_back(&relu_out_);
  return kids;
}

std::int64_t Bottleneck::last_dense_macs() const {
  return main_.last_dense_macs() + projection_.last_dense_macs();
}

std::int64_t Bottleneck::last_sparse_macs() const {
  return main_.last_sparse_macs() + projection_.last_sparse_macs();
}

std::unique_ptr<Sequential> make_resnet50(const ModelConfig& cfg) {
  Rng rng(cfg.seed);
  auto model = std::make_unique<Sequential>("resnet50");

  const std::int64_t stem = scaled_channels(64, cfg.width_mult);
  Conv2dSpec stem_spec;
  stem_spec.in_channels = 3;
  stem_spec.out_channels = stem;
  stem_spec.kernel = 3;
  stem_spec.padding = 1;
  stem_spec.prunable = cfg.prune_stem;
  model->emplace<Conv2d>("stem.conv", stem_spec, rng);
  model->emplace<BatchNorm2d>("stem.bn", stem);
  model->emplace<ReLU>("stem.relu");

  const std::int64_t stage_planes[4] = {
      scaled_channels(64, cfg.width_mult), scaled_channels(128, cfg.width_mult),
      scaled_channels(256, cfg.width_mult),
      scaled_channels(512, cfg.width_mult)};
  const std::int64_t stage_blocks[4] = {3, 4, 6, 3};

  std::int64_t in_ch = stem;
  for (int stage = 0; stage < 4; ++stage) {
    for (std::int64_t b = 0; b < stage_blocks[stage]; ++b) {
      const std::int64_t stride = (stage > 0 && b == 0) ? 2 : 1;
      std::string name = "s";
      name += std::to_string(stage + 1);
      name += ".b";
      name += std::to_string(b);
      auto& block = model->emplace<Bottleneck>(name, in_ch,
                                               stage_planes[stage], stride, rng);
      in_ch = block.out_channels();
    }
  }

  model->emplace<GlobalAvgPool>("gap");
  model->emplace<Linear>("fc", in_ch, cfg.num_classes, rng, /*bias=*/true,
                         /*prunable=*/true);
  return model;
}

}  // namespace crisp::nn
