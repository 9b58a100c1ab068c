#include "nn/layer.h"

namespace crisp::nn {

void Parameter::ensure_mask() {
  if (!has_mask()) mask = Tensor::ones(value.shape());
}

void Parameter::ensure_grad() {
  if (grad.empty()) grad = Tensor::zeros(value.shape());
}

Tensor Parameter::effective_value() const {
  if (!has_mask()) return value;
  return value.mul(mask);
}

void Parameter::bake_mask() {
  if (has_mask()) value.mul_(mask);
}

double Parameter::mask_sparsity() const {
  if (!has_mask()) return 0.0;
  return mask.zero_fraction();
}

MatrixView Parameter::value_matrix() {
  CRISP_CHECK(matrix_rows > 0 && matrix_cols > 0,
              "parameter " << name << " has no matrix interpretation");
  return as_matrix(value, matrix_rows, matrix_cols);
}

ConstMatrixView Parameter::value_matrix() const {
  CRISP_CHECK(matrix_rows > 0 && matrix_cols > 0,
              "parameter " << name << " has no matrix interpretation");
  return as_matrix(value, matrix_rows, matrix_cols);
}

MatrixView Parameter::mask_matrix() {
  CRISP_CHECK(has_mask(), "parameter " << name << " has no mask");
  return as_matrix(mask, matrix_rows, matrix_cols);
}

MatrixView Parameter::grad_matrix() {
  CRISP_CHECK(!grad.empty(), "parameter " << name << " has no gradient");
  return as_matrix(grad, matrix_rows, matrix_cols);
}

const kernels::SpmmKernel* find_kernel(const KernelTable& table,
                                       const Parameter* weight) {
  for (const KernelBinding& b : table)
    if (b.weight == weight) return b.kernel.get();
  return nullptr;
}

Tensor Layer::forward_eval(const Tensor& x, const KernelTable& table) const {
  (void)x;
  (void)table;
  CRISP_CHECK(false, name() << ": forward_eval not implemented — this layer "
                               "cannot join a serve::CompiledModel");
  return Tensor();
}

void Layer::zero_grad() {
  for (Parameter* p : parameters()) {
    p->ensure_grad();
    p->grad.zero();
  }
}

}  // namespace crisp::nn
