#include "tensor/mttkrp_blocked.hpp"

#include "util/check.hpp"
#include "util/simd.hpp"

namespace cpr::tensor {

void hadamard_block(const CpModel& model, const SparseTensor& t,
                    const std::size_t* entries, std::size_t n,
                    std::size_t skip_mode, double* z_block) {
  const std::size_t rank = model.rank();
  const std::size_t order = model.order();
  // Participating modes in ascending order (the reference product order).
  // The fixed bound keeps the list on the stack; no realistic parameter
  // space approaches it, and overflowing it would corrupt the stack.
  CPR_CHECK_MSG(order <= 64, "hadamard_block supports tensors up to order 64");
  std::size_t modes[64];
  std::size_t n_modes = 0;
  for (std::size_t j = 0; j < order; ++j) {
    if (j != skip_mode) modes[n_modes++] = j;
  }
  for (std::size_t b = 0; b < n; ++b) {
    const std::size_t e = entries[b];
    double* __restrict__ z = z_block + b * rank;
    if (n_modes == 0) {
      for (std::size_t r = 0; r < rank; ++r) z[r] = 1.0;
      continue;
    }
    const double* __restrict__ f0 =
        model.factor(modes[0]).row_ptr(t.index(e, modes[0]));
    if (n_modes == 1) {
      CPR_SIMD
      for (std::size_t r = 0; r < rank; ++r) z[r] = f0[r];
    } else {
      const double* __restrict__ f1 =
          model.factor(modes[1]).row_ptr(t.index(e, modes[1]));
      CPR_SIMD
      for (std::size_t r = 0; r < rank; ++r) z[r] = f0[r] * f1[r];
      for (std::size_t m = 2; m < n_modes; ++m) {
        const double* __restrict__ fm =
            model.factor(modes[m]).row_ptr(t.index(e, modes[m]));
        CPR_SIMD
        for (std::size_t r = 0; r < rank; ++r) z[r] *= fm[r];
      }
    }
  }
}

}  // namespace cpr::tensor
