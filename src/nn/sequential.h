// Sequential container — also the top-level "model" type of the library.
//
// Residual blocks are themselves Layers (see nn/models/*.h), so every
// network in this reproduction is a Sequential of layers and blocks. The
// container provides the whole-model services the pruning framework needs:
// the flat prunable-parameter list, state_dict save/restore (for the model
// zoo), and MAC accounting.
#pragma once

#include <map>

#include "nn/layer.h"
#include "tensor/serialize.h"

namespace crisp::nn {

class Sequential final : public Layer {
 public:
  explicit Sequential(std::string name = "model") : Layer(std::move(name)) {}

  Sequential& add(LayerPtr layer);

  template <typename L, typename... Args>
  L& emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    add(std::move(layer));
    return ref;
  }

  Tensor forward(const Tensor& x, bool train) override;
  Tensor forward_eval(const Tensor& x, const KernelTable& table) const override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override;
  std::vector<NamedBuffer> buffers() override;
  std::vector<Layer*> children() override;

  std::int64_t layer_count() const {
    return static_cast<std::int64_t>(layers_.size());
  }
  Layer& layer(std::int64_t i) { return *layers_[static_cast<std::size_t>(i)]; }
  const std::vector<LayerPtr>& layers() const { return layers_; }

  /// All parameters with prunable=true — the matrices CRISP operates on.
  std::vector<Parameter*> prunable_parameters();

  /// Parameters + buffers, keyed by their unique names.
  TensorMap state_dict();
  /// Restores a state_dict; throws if a name is missing or a shape differs.
  void load_state_dict(const TensorMap& state);

  /// Sum of last_dense/sparse_macs over all contained layers (recursive
  /// via the virtual accessors, so blocks report their children too).
  std::int64_t last_dense_macs() const override;
  std::int64_t last_sparse_macs() const override;

 private:
  std::vector<LayerPtr> layers_;
};

/// Convenience: forward in eval mode without gradients.
Tensor predict(Sequential& model, const Tensor& x);

/// Removes every parameter mask (used when re-running pruning experiments
/// from a restored dense state_dict, which does not carry masks).
void clear_masks(Sequential& model);

}  // namespace crisp::nn
