#pragma once
// Blocked gather of Hadamard rows — the first stage of the fused ALS
// normal-equation assembly behind `CPR_KERNEL=blocked` (util/kernel_mode.hpp).
//
// For one factor row, ALS expands the observed entries of the row's slice
// (tensor::ModeSlices) tile by tile into a block of Hadamard rows, then
// accumulates Z^T Z and Z^T w over the tile (linalg/fused.hpp). This TU runs
// the rank loops through `#pragma omp simd` over restrict-qualified
// pointers, built with -march=native where available and FP contraction off,
// so every row is bitwise-equal to the scalar `hadamard_row`
// (tensor/mttkrp.hpp).

#include <cstddef>

#include "tensor/cp_model.hpp"
#include "tensor/sparse_tensor.hpp"

namespace cpr::tensor {

/// \brief Packs the Hadamard rows of a list of nonzeros into a row block.
/// \param model     CP factors.
/// \param t         the observed tensor.
/// \param entries   ids of the `n` nonzeros to expand.
/// \param n         number of nonzeros (rows of the output block).
/// \param skip_mode mode excluded from the product (the mode being solved).
/// \param z_block   n x rank row-major output; row b receives
///                  prod_{j != skip} U_j(i_j(entries[b]), :).
///
/// Row b equals `hadamard_row(model, t, entries[b], skip_mode, ...)` bitwise;
/// the first two participating factors initialize the product directly
/// (1 * a == a exactly), the rest multiply in ascending mode order.
void hadamard_block(const CpModel& model, const SparseTensor& t,
                    const std::size_t* entries, std::size_t n,
                    std::size_t skip_mode, double* z_block);

}  // namespace cpr::tensor
