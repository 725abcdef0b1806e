#pragma once
// Scalar per-entry kernels of CP completion over the observed entries Ω.
//
// The row solves of ALS, CCD and AMN (completion/) each need, for an
// observed entry i, the Hadamard product of every factor row except the one
// being solved: z_r = prod_{j != m} U_j(i_j, r). `hadamard_row` is that
// product for one entry — the scalar reference of the serial ALS assembly,
// which the blocked `hadamard_block` (tensor/mttkrp_blocked.hpp) matches
// bitwise. The TU is compiled with FP contraction off so the two agree.

#include "tensor/cp_model.hpp"
#include "tensor/sparse_tensor.hpp"

namespace cpr::tensor {

/// Hadamard row product of all factors except `skip_mode` at the entry's
/// coordinates: z_r = prod_{j != skip} U_j(i_j, r). Writes `z` (size R).
void hadamard_row(const CpModel& model, const SparseTensor& t, std::size_t entry,
                  std::size_t skip_mode, double* z);

/// Sum of squared residuals over observed entries: sum_Ω (t_i - t̂_i)^2.
/// Summed in fixed chunks (util/ordered_sum.hpp), so the value is bitwise
/// the same at every thread count.
double sq_residual_observed(const SparseTensor& t, const CpModel& model);

}  // namespace cpr::tensor
