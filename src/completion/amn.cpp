#include "completion/amn.hpp"

#include <cmath>

#include "linalg/lu.hpp"
#include "tensor/mttkrp.hpp"
#include "util/log.hpp"
#include "util/ordered_sum.hpp"

namespace cpr::completion {

namespace {

/// Mean loss over observed entries plus the regularization term — the
/// objective AMN drives down (barrier excluded).
template <typename Loss>
double amn_objective(const tensor::SparseTensor& t, const tensor::CpModel& model,
                     double regularization) {
  const double total = ordered_sum(t.nnz(), [&](std::size_t e) {
    const double prediction = model.eval(t.entry_index(e));
    if constexpr (Loss::log_link) {
      // Outside the positive orthant: effectively infinite.
      if (prediction <= 0.0) return 1e12;
      return Loss::rho(std::log(prediction / t.value(e)));
    } else {
      return Loss::rho(prediction - t.value(e));
    }
  });
  const double n = std::max<std::size_t>(t.nnz(), 1);
  return total / n + regularization * model.regularization_term();
}

/// Full objective for one row u of one factor, including the barrier:
///   (1/|Ω_i|) Σ_e rho(r_e(z_e·u)) + λ||u||² - η Σ_r log u_r.
/// On the log link returns +inf when u leaves the positive orthant or
/// z·u <= 0, and the barrier term applies.
template <typename Loss>
double row_objective(const std::vector<std::vector<double>>& zs,
                     const std::vector<double>& targets, const linalg::Vector& u,
                     double lambda, double eta) {
  if constexpr (Loss::log_link) {
    for (const double ur : u) {
      if (!(ur > 0.0)) return std::numeric_limits<double>::infinity();
    }
  }
  const double inv_count = 1.0 / static_cast<double>(zs.size());
  double data_term = 0.0;
  for (std::size_t e = 0; e < zs.size(); ++e) {
    double m = 0.0;
    for (std::size_t r = 0; r < u.size(); ++r) m += zs[e][r] * u[r];
    if (Loss::log_link && !(m > 0.0)) return std::numeric_limits<double>::infinity();
    data_term += Loss::rho(Loss::link(m) - targets[e]);
  }
  double value = data_term * inv_count;
  for (const double ur : u) {
    if constexpr (Loss::log_link) {
      value += lambda * ur * ur - eta * std::log(ur);
    } else {
      value += lambda * ur * ur;
    }
  }
  return value;
}

}  // namespace

template <typename Loss>
CompletionReport amn_complete(const tensor::SparseTensor& t, tensor::CpModel& model,
                              const AmnOptions& options) {
  CPR_CHECK(t.dims() == model.dims());
  CPR_CHECK_MSG(t.nnz() > 0, "cannot complete a tensor with no observations");
  if constexpr (Loss::log_link) {
    CPR_CHECK_MSG(model.all_factors_positive(),
                  "AMN requires a strictly positive initial model (use init_positive)");
    for (std::size_t e = 0; e < t.nnz(); ++e) {
      CPR_CHECK_MSG(t.value(e) > 0.0, "a log-link loss requires positive observations");
    }
  }

  const std::size_t rank = model.rank();
  const tensor::ModeSlices slices(t);
  const auto objective_of = [&] {
    return amn_objective<Loss>(t, model, options.regularization);
  };

  // Pre-compute the link of each observation once.
  std::vector<double> link_values(t.nnz());
  for (std::size_t e = 0; e < t.nnz(); ++e) link_values[e] = Loss::link(t.value(e));

  CompletionReport report;
  int total_sweeps = 0;

  // One "sweep" = a full pass of row-wise Newton solves over every mode.
  const auto sweep_all_modes = [&](double eta) {
    for (std::size_t mode = 0; mode < model.order(); ++mode) {
      auto& factor = model.factor(mode);
      const std::size_t n_rows = factor.rows();
#ifdef CPR_HAVE_OPENMP
#pragma omp parallel for schedule(dynamic, 2)
#endif
      for (std::size_t i = 0; i < n_rows; ++i) {
        const auto& entries = slices.entries(mode, i);
        if (entries.empty()) continue;
        const double inv_count = 1.0 / static_cast<double>(entries.size());

        // Cache the Hadamard rows z_e for this slice (fixed during the row solve).
        std::vector<std::vector<double>> zs(entries.size(), std::vector<double>(rank));
        std::vector<double> targets(entries.size());
        for (std::size_t k = 0; k < entries.size(); ++k) {
          tensor::hadamard_row(model, t, entries[k], mode, zs[k].data());
          targets[k] = link_values[entries[k]];
        }

        linalg::Vector u = factor.row(i);
        double current =
            row_objective<Loss>(zs, targets, u, options.regularization, eta);

        for (int iter = 0; iter < options.max_newton_iters; ++iter) {
          // Gradient and Hessian of the barrier-augmented row objective
          // (Equation 4 ingredients). With r the link residual and
          // scale = dr/dm, dphi/dm = rho'(r)·scale and d2phi/dm2 =
          // curvature·scale², where curvature = rho'' - rho' on the log
          // link (scale = 1/m) and rho'' on the identity link (scale = 1).
          linalg::Vector grad(rank, 0.0);
          linalg::Matrix hess(rank, rank, 0.0);
          for (std::size_t k = 0; k < entries.size(); ++k) {
            const auto& z = zs[k];
            double m = 0.0;
            for (std::size_t r = 0; r < rank; ++r) m += z[r] * u[r];
            const double res = Loss::link(m) - targets[k];
            const double slope = Loss::rho1(res);
            const double scale = Loss::log_link ? 1.0 / m : 1.0;
            const double curvature =
                Loss::log_link ? Loss::rho2(res) - slope : Loss::rho2(res);
            for (std::size_t r = 0; r < rank; ++r) {
              grad[r] += slope * z[r] * scale * inv_count;
              const double coeff = curvature * scale * scale * inv_count;
              for (std::size_t s = r; s < rank; ++s) {
                hess(r, s) += coeff * z[r] * z[s];
              }
            }
          }
          double grad_norm_sq = 0.0;
          for (std::size_t r = 0; r < rank; ++r) {
            if constexpr (Loss::log_link) {
              grad[r] += 2.0 * options.regularization * u[r] - eta / u[r];
              hess(r, r) += 2.0 * options.regularization + eta / (u[r] * u[r]);
            } else {
              grad[r] += 2.0 * options.regularization * u[r];
              hess(r, r) += 2.0 * options.regularization;
            }
            grad_norm_sq += grad[r] * grad[r];
            for (std::size_t s = 0; s < r; ++s) hess(r, s) = hess(s, r);
          }
          if (std::sqrt(grad_norm_sq) < options.newton_tol) break;

          // Newton direction with Levenberg fallback: if the (possibly
          // indefinite) Hessian solve fails, damp the diagonal and retry.
          linalg::Vector step;
          double damping = 0.0;
          for (int attempt = 0; attempt < 5; ++attempt) {
            linalg::Matrix damped = hess;
            if (damping > 0.0) {
              for (std::size_t r = 0; r < rank; ++r) damped(r, r) += damping;
            }
            auto solved = linalg::solve_lu(std::move(damped), grad);
            if (solved.has_value()) {
              // Require a descent direction: grad^T step > 0 (we move -step).
              double descent = 0.0;
              for (std::size_t r = 0; r < rank; ++r) descent += grad[r] * (*solved)[r];
              if (descent > 0.0) {
                step = std::move(*solved);
                break;
              }
            }
            damping = damping == 0.0 ? 1e-4 : damping * 100.0;
          }
          if (step.empty()) break;  // no usable direction; keep current row

          // Fraction-to-the-boundary rule (log link) plus backtracking line
          // search.
          double alpha = 1.0;
          if constexpr (Loss::log_link) {
            for (std::size_t r = 0; r < rank; ++r) {
              if (step[r] > 0.0) {
                alpha = std::min(alpha, 0.95 * u[r] / step[r]);
              }
            }
          }
          bool improved = false;
          for (int ls = 0; ls < 30 && alpha > 1e-14; ++ls) {
            linalg::Vector candidate = u;
            for (std::size_t r = 0; r < rank; ++r) candidate[r] -= alpha * step[r];
            const double value =
                row_objective<Loss>(zs, targets, candidate, options.regularization, eta);
            if (value < current) {
              u = std::move(candidate);
              current = value;
              improved = true;
              break;
            }
            alpha *= 0.5;
          }
          if (!improved) break;
        }
        factor.set_row(i, u);
      }
    }
  };

  const auto stalled = [&](double before, double after) {
    const double denom = std::max(std::abs(before), 1e-300);
    return std::abs(before - after) / denom < options.tol;
  };

  // One barrier stage: sweep the alternating row solves until the objective
  // stalls, the stage's sweep cap is hit, or max_sweeps is reached. Returns
  // whether it stalled.
  const auto run_stage = [&](double eta, int stage_sweeps) {
    double eta_prev = objective_of();
    for (int inner = 0; inner < stage_sweeps; ++inner) {
      if (total_sweeps >= options.max_sweeps) break;
      ++total_sweeps;
      sweep_all_modes(eta);
      const double objective = objective_of();
      report.objective_history.push_back(objective);
      report.sweeps = total_sweeps;
      CPR_LOG_DEBUG("AMN eta " << eta << " sweep " << inner << " objective " << objective);
      if (stalled(eta_prev, objective)) return true;
      eta_prev = objective;
    }
    return false;
  };

  if constexpr (!Loss::log_link) {
    // No positivity constraint, so no barrier: one unconstrained stage.
    report.converged = run_stage(0.0, options.max_sweeps);
    return report;
  }

  // Interior-point continuation: run a stage per barrier value, then tighten
  // the barrier geometrically.
  double prev_objective = objective_of();
  for (double eta = options.eta_init; eta > options.eta_min; eta /= options.eta_factor) {
    if (total_sweeps >= options.max_sweeps) break;
    run_stage(eta, options.sweeps_per_eta);
    const double objective = report.objective_history.empty()
                                 ? prev_objective
                                 : report.objective_history.back();
    if (eta <= options.regularization && stalled(prev_objective, objective)) {
      report.converged = true;
      break;
    }
    prev_objective = objective;
  }
  return report;
}

template CompletionReport amn_complete<LeastSquaresLoss>(const tensor::SparseTensor&,
                                                         tensor::CpModel&,
                                                         const AmnOptions&);
template CompletionReport amn_complete<LogQuadraticLoss>(const tensor::SparseTensor&,
                                                         tensor::CpModel&,
                                                         const AmnOptions&);
template CompletionReport amn_complete<HuberLogLoss>(const tensor::SparseTensor&,
                                                     tensor::CpModel&, const AmnOptions&);

CompletionReport amn_complete(const tensor::SparseTensor& t, tensor::CpModel& model,
                              const AmnOptions& options) {
  return amn_complete<LogQuadraticLoss>(t, model, options);
}

double mlogq2_objective(const tensor::SparseTensor& t, const tensor::CpModel& model,
                        double regularization) {
  return amn_objective<LogQuadraticLoss>(t, model, regularization);
}

}  // namespace cpr::completion
