#pragma once
// Alternating minimization via Newton's method (AMN) with log-barrier
// continuation — the generalized tensor-completion path of Section 4.2.2
// (the generalized-CP form of Hong, Kolda and Duersch).
//
// Minimizes Eq. 3 under an element-wise loss policy from loss.hpp:
//   LogQuadraticLoss  phi(t, t̂) = (log t - log t̂)^2   (MLogQ2, Section 2.2;
//                                                       the default)
//   HuberLogLoss      Huber on log(t̂/t), robust to corrupted measurements
//   LeastSquaresLoss  phi(t, t̂) = (t - t̂)^2
// Log-link losses require strictly positive factor matrices, enforced by
// element-wise log barriers -eta * sum log(u) added to the objective.
// Following interior-point practice (and the paper's schedule), eta starts
// at 10 and is decreased geometrically by 8x until it reaches eta_min; each
// row subproblem is solved with at most `max_newton_iters` damped Newton
// steps. The identity-link LeastSquaresLoss needs no barrier and runs one
// unconstrained stage of up to `max_sweeps` sweeps.
//
// The resulting positive factors feed the extrapolation model (Section 5.3):
// their rank-1 SVDs are positive by Perron–Frobenius.

#include "completion/loss.hpp"
#include "completion/options.hpp"
#include "tensor/cp_model.hpp"
#include "tensor/sparse_tensor.hpp"

namespace cpr::completion {

struct AmnOptions : CompletionOptions {
  double eta_init = 10.0;    ///< initial barrier parameter (paper: 10)
  double eta_factor = 8.0;   ///< geometric decrease factor (paper: 8)
  double eta_min = 1e-11;    ///< continuation stops once eta <= eta_min (paper: 1e-11)
  int max_newton_iters = 40; ///< Newton iterations per row subproblem (paper: 40)
  double newton_tol = 1e-9;  ///< gradient-norm tolerance for a row subproblem
  int sweeps_per_eta = 6;    ///< alternating sweeps per barrier value
};

/// Fits `model` to the observed values of `t` under `Loss`. For log-link
/// losses the observations must be positive and `model` must be initialized
/// strictly positive (e.g. CpModel::init_positive); throws CheckError
/// otherwise. Instantiated in amn.cpp for the three losses of loss.hpp.
template <typename Loss>
CompletionReport amn_complete(const tensor::SparseTensor& t, tensor::CpModel& model,
                              const AmnOptions& options);

/// amn_complete<LogQuadraticLoss>: fits a strictly positive CP model to the
/// *positive* observed values of `t` under the MLogQ2 loss.
CompletionReport amn_complete(const tensor::SparseTensor& t, tensor::CpModel& model,
                              const AmnOptions& options);

/// Mean MLogQ2 over observed entries plus the regularization term — the
/// objective amn_complete drives down (barrier excluded).
double mlogq2_objective(const tensor::SparseTensor& t, const tensor::CpModel& model,
                        double regularization);

}  // namespace cpr::completion
