#include "cp_als_dense.hpp"

#include <cmath>

#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "util/log.hpp"

namespace cpr::tensor {

namespace {

/// Dense MTTKRP via direct iteration over all tensor elements.
void dense_mttkrp(const DenseTensor& t, const CpModel& model, std::size_t mode,
                  linalg::Matrix& out) {
  out.fill(0.0);
  const std::size_t rank = model.rank();
  Index idx(t.order(), 0);
  std::vector<double> z(rank);
  std::size_t flat = 0;
  do {
    for (std::size_t r = 0; r < rank; ++r) z[r] = 1.0;
    for (std::size_t j = 0; j < t.order(); ++j) {
      if (j == mode) continue;
      const double* row = model.factor(j).row_ptr(idx[j]);
      for (std::size_t r = 0; r < rank; ++r) z[r] *= row[r];
    }
    double* row = out.row_ptr(idx[mode]);
    const double value = t[flat++];
    for (std::size_t r = 0; r < rank; ++r) row[r] += value * z[r];
  } while (next_index(idx, t.dims()));
}

}  // namespace

DenseAlsReport cp_als_dense(const DenseTensor& t, CpModel& model,
                            const DenseAlsOptions& options) {
  CPR_CHECK(t.dims() == model.dims());
  CPR_CHECK(model.rank() == options.rank);
  const std::size_t rank = options.rank;
  const std::size_t order = t.order();
  const double t_norm = std::max(t.frobenius_norm(), 1e-300);

  DenseAlsReport report;
  double prev_fit = -1.0;
  linalg::Matrix mttkrp_out, gram(rank, rank), hadamard(rank, rank);

  for (int sweep = 0; sweep < options.max_sweeps; ++sweep) {
    for (std::size_t mode = 0; mode < order; ++mode) {
      mttkrp_out = linalg::Matrix(t.dims()[mode], rank);
      dense_mttkrp(t, model, mode, mttkrp_out);
      // Normal-equation matrix: Hadamard of the other modes' Grams.
      hadamard.fill(1.0);
      for (std::size_t j = 0; j < order; ++j) {
        if (j == mode) continue;
        linalg::syrk_tn(model.factor(j), gram);
        for (std::size_t r = 0; r < rank; ++r) {
          for (std::size_t s = 0; s < rank; ++s) hadamard(r, s) *= gram(r, s);
        }
      }
      for (std::size_t r = 0; r < rank; ++r) hadamard(r, r) += options.regularization;
      const auto solution = linalg::solve_spd_multi(hadamard, mttkrp_out.transposed());
      CPR_CHECK_MSG(solution.has_value(), "dense ALS normal equations not SPD");
      model.factor(mode) = solution->transposed();
    }

    const DenseTensor reconstructed = model.reconstruct();
    const double fit = 1.0 - t.frobenius_distance(reconstructed) / t_norm;
    report.sweeps = sweep + 1;
    report.final_fit = fit;
    CPR_LOG_DEBUG("dense ALS sweep " << sweep << " fit " << fit);
    if (prev_fit >= 0.0 && std::abs(fit - prev_fit) < options.tol) {
      report.converged = true;
      break;
    }
    prev_fit = fit;
  }
  return report;
}

}  // namespace cpr::tensor
