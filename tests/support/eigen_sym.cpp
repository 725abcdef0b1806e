#include "eigen_sym.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace cpr::linalg {

SymEigResult eigen_sym(Matrix a, int max_sweeps, double tol) {
  CPR_CHECK_MSG(a.rows() == a.cols(), "eigen_sym: matrix must be square");
  const std::size_t n = a.rows();
  Matrix v(n, n);
  v.set_identity();

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    // Off-diagonal Frobenius mass to test convergence.
    double off = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) off += a(i, j) * a(i, j);
    }
    if (std::sqrt(off) < tol * std::max(1.0, a.frobenius_norm())) break;

    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (apq == 0.0) continue;
        const double theta = (a(q, q) - a(p, p)) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(1.0 + theta * theta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        // A <- J^T A J for the (p,q) rotation.
        for (std::size_t k = 0; k < n; ++k) {
          const double akp = a(k, p), akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = a(p, k), aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p), vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  Vector eigenvalues(n);
  for (std::size_t i = 0; i < n; ++i) eigenvalues[i] = a(i, i);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return eigenvalues[x] > eigenvalues[y]; });
  Vector sorted_values(n);
  Matrix sorted_vectors(n, n);
  for (std::size_t jj = 0; jj < n; ++jj) {
    sorted_values[jj] = eigenvalues[order[jj]];
    for (std::size_t i = 0; i < n; ++i) sorted_vectors(i, jj) = v(i, order[jj]);
  }
  return SymEigResult{std::move(sorted_values), std::move(sorted_vectors)};
}

}  // namespace cpr::linalg
