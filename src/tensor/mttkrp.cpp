#include "tensor/mttkrp.hpp"

#include "util/ordered_sum.hpp"

namespace cpr::tensor {

void hadamard_row(const CpModel& model, const SparseTensor& t, std::size_t entry,
                  std::size_t skip_mode, double* z) {
  const std::size_t rank = model.rank();
  for (std::size_t r = 0; r < rank; ++r) z[r] = 1.0;
  for (std::size_t j = 0; j < model.order(); ++j) {
    if (j == skip_mode) continue;
    const double* row = model.factor(j).row_ptr(t.index(entry, j));
    for (std::size_t r = 0; r < rank; ++r) z[r] *= row[r];
  }
}

double sq_residual_observed(const SparseTensor& t, const CpModel& model) {
  return ordered_sum(t.nnz(), [&](std::size_t e) {
    const double diff = t.value(e) - model.eval(t.entry_index(e));
    return diff * diff;
  });
}

}  // namespace cpr::tensor
