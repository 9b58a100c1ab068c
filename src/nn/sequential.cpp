#include "nn/sequential.h"

namespace crisp::nn {

Sequential& Sequential::add(LayerPtr layer) {
  CRISP_CHECK(layer != nullptr, "null layer added to " << name());
  layers_.push_back(std::move(layer));
  return *this;
}

Tensor Sequential::forward(const Tensor& x, bool train) {
  Tensor h = x;
  for (auto& l : layers_) h = l->forward(h, train);
  return h;
}

Tensor Sequential::forward_eval(const Tensor& x,
                                const KernelTable& table) const {
  Tensor h = x;
  for (const auto& l : layers_) h = l->forward_eval(h, table);
  return h;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    g = (*it)->backward(g);
  return g;
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> ps;
  for (auto& l : layers_) {
    auto sub = l->parameters();
    ps.insert(ps.end(), sub.begin(), sub.end());
  }
  return ps;
}

std::vector<NamedBuffer> Sequential::buffers() {
  std::vector<NamedBuffer> bs;
  for (auto& l : layers_) {
    auto sub = l->buffers();
    bs.insert(bs.end(), sub.begin(), sub.end());
  }
  return bs;
}

std::vector<Layer*> Sequential::children() {
  std::vector<Layer*> out;
  out.reserve(layers_.size());
  for (auto& l : layers_) out.push_back(l.get());
  return out;
}

std::vector<Parameter*> Sequential::prunable_parameters() {
  std::vector<Parameter*> out;
  for (Parameter* p : parameters())
    if (p->prunable) out.push_back(p);
  return out;
}

TensorMap Sequential::state_dict() {
  TensorMap state;
  for (Parameter* p : parameters()) {
    CRISP_CHECK(state.find(p->name) == state.end(),
                "duplicate parameter name " << p->name);
    state.emplace(p->name, p->value);
    if (p->has_mask()) state.emplace(p->name + "#mask", p->mask);
  }
  for (const NamedBuffer& b : buffers()) {
    CRISP_CHECK(state.find(b.name) == state.end(),
                "duplicate buffer name " << b.name);
    state.emplace(b.name, *b.tensor);
  }
  return state;
}

void Sequential::load_state_dict(const TensorMap& state) {
  for (Parameter* p : parameters()) {
    auto it = state.find(p->name);
    CRISP_CHECK(it != state.end(), "state_dict missing parameter " << p->name);
    CRISP_CHECK(it->second.same_shape(p->value),
                "shape mismatch for " << p->name << ": "
                                      << shape_to_string(it->second.shape())
                                      << " vs "
                                      << shape_to_string(p->value.shape()));
    p->value = it->second;
    auto mit = state.find(p->name + "#mask");
    if (mit != state.end()) p->mask = mit->second;
  }
  for (NamedBuffer& b : buffers()) {
    auto it = state.find(b.name);
    CRISP_CHECK(it != state.end(), "state_dict missing buffer " << b.name);
    CRISP_CHECK(it->second.same_shape(*b.tensor),
                "shape mismatch for buffer " << b.name);
    *b.tensor = it->second;
  }
}

std::int64_t Sequential::last_dense_macs() const {
  std::int64_t total = 0;
  for (const auto& l : layers_) total += l->last_dense_macs();
  return total;
}

std::int64_t Sequential::last_sparse_macs() const {
  std::int64_t total = 0;
  for (const auto& l : layers_) total += l->last_sparse_macs();
  return total;
}

Tensor predict(Sequential& model, const Tensor& x) {
  return model.forward(x, /*train=*/false);
}

void clear_masks(Sequential& model) {
  for (Parameter* p : model.parameters()) p->mask = Tensor();
}

}  // namespace crisp::nn
