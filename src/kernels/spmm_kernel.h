// Format-polymorphic sparse-times-dense kernel interface.
//
// Every sparse storage format (CSR, ELLPACK, Blocked-ELL, CRISP) implements
// this interface, so higher layers — sparse/spmm.h dispatch, packed eval
// forwards (nn::KernelTable), the kernel bench — can run any encoding
// through one code path without templates or RTTI. Implementations must be:
//   * const-thread-safe: spmm() may be called concurrently (the batched
//     conv forward does exactly that);
//   * deterministic in the thread count: the contract is row-partitioned
//     parallelism where each output row is written by exactly one thread
//     in a fixed accumulation order (see kernels/parallel_for.h).
#pragma once

#include <cstdint>

#include "tensor/tensor.h"

namespace crisp::kernels {

class SpmmKernel {
 public:
  virtual ~SpmmKernel() = default;

  /// Logical dense dimensions of the encoded weight matrix W.
  virtual std::int64_t rows() const = 0;
  virtual std::int64_t cols() const = 0;

  /// y[rows, P] = W · x[cols, P]; y is overwritten. Throws on shape
  /// mismatch. Must be bit-identical for any kernels::num_threads().
  virtual void spmm(ConstMatrixView x, MatrixView y) const = 0;

  /// Short lowercase identifier ("csr", "crisp", ...) for logs and benches.
  virtual const char* format_name() const = 0;
};

}  // namespace crisp::kernels
