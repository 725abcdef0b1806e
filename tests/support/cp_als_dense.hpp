#pragma once
// Classical CP-ALS for fully-observed dense tensors.
//
// Test-only reference: tensor_test checks that the completion ALS on a
// fully-observed Ω agrees with it.

#include "tensor/cp_model.hpp"
#include "tensor/dense_tensor.hpp"

namespace cpr::tensor {

struct DenseAlsOptions {
  std::size_t rank = 4;
  int max_sweeps = 100;
  double tol = 1e-8;          ///< stop when relative fit improves less than this
  double regularization = 0.0;
  std::uint64_t seed = 42;
};

struct DenseAlsReport {
  int sweeps = 0;
  double final_fit = 0.0;  ///< 1 - ||T - T̂||_F / ||T||_F
  bool converged = false;
};

/// Fits a rank-R CP model to a dense tensor via alternating least squares.
DenseAlsReport cp_als_dense(const DenseTensor& t, CpModel& model,
                            const DenseAlsOptions& options);

}  // namespace cpr::tensor
