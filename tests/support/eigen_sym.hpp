#pragma once
// Symmetric eigendecomposition via the classical Jacobi rotation method.
//
// Test-only reference: linalg_test cross-checks the SVD against the
// eigendecomposition of A^T A.

#include "linalg/matrix.hpp"

namespace cpr::linalg {

struct SymEigResult {
  Vector eigenvalues;   ///< non-increasing
  Matrix eigenvectors;  ///< columns, same order as eigenvalues
};

/// Eigendecomposition of a symmetric matrix (only the lower triangle is
/// referenced conceptually; the input must be symmetric).
SymEigResult eigen_sym(Matrix a, int max_sweeps = 100, double tol = 1e-13);

}  // namespace cpr::linalg
