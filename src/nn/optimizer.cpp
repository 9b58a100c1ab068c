#include "nn/optimizer.h"

#include "kernels/parallel_for.h"

namespace crisp::nn {

Sgd::Sgd(std::vector<Parameter*> params, const SgdConfig& cfg)
    : params_(std::move(params)), cfg_(cfg) {
  velocity_.reserve(params_.size());
  for (Parameter* p : params_) {
    CRISP_CHECK(p != nullptr, "null parameter handed to Sgd");
    velocity_.push_back(Tensor::zeros(p->value.shape()));
    p->ensure_grad();
  }
}

void Sgd::step() {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Parameter& p = *params_[i];
    Tensor& v = velocity_[i];
    const float lr = cfg_.lr, mu = cfg_.momentum, wd = cfg_.weight_decay;
    // Elementwise update — each slot owns its velocity and weight, so the
    // loop threads with disjoint writes (large parameters dominate a
    // training step once backward itself is parallel).
    kernels::parallel_for(
        p.value.numel(),
        [&](std::int64_t j0, std::int64_t j1) {
          for (std::int64_t j = j0; j < j1; ++j) {
            const float g = p.grad[j] + wd * p.value[j];
            v[j] = mu * v[j] - lr * g;
            p.value[j] += v[j];
          }
        },
        kernels::rows_grain(4));
  }
}

void Sgd::zero_grad() {
  for (Parameter* p : params_) p->grad.zero();
}

}  // namespace crisp::nn
