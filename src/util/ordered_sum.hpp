#pragma once
// ordered_sum — a parallel sum whose bits do not depend on the thread count.
//
// An OpenMP `reduction(+)` adds the per-thread partials in whatever order
// the threads arrive, so the same sum differs in its last bits from run to
// run and from one team size to the next. The completion objectives feed
// convergence tests (`tol`, AMN's `converged`), so such a drift can change
// the sweep at which a fit stops. Here the index range is cut into fixed
// chunks of kOrderedSumChunk terms that do not depend on the team: each
// chunk is summed left to right, and the chunk partials are added in chunk
// order. Threads only decide who computes a chunk, never how it is added.

#include <cstddef>
#include <vector>

namespace cpr {

/// Terms per chunk of ordered_sum: large enough that a chunk's work hides
/// the scheduling cost, small enough that a few thousand observations still
/// spread over a team.
inline constexpr std::size_t kOrderedSumChunk = 256;

/// \brief Σ_{i<n} term(i), bitwise identical at every thread count.
/// \param n    number of terms.
/// \param term callable mapping an index in [0, n) to its double term; it
///             is called concurrently from the OpenMP team.
template <typename Term>
double ordered_sum(std::size_t n, const Term& term) {
  const std::size_t n_chunks = (n + kOrderedSumChunk - 1) / kOrderedSumChunk;
  std::vector<double> partials(n_chunks, 0.0);
#ifdef CPR_HAVE_OPENMP
#pragma omp parallel for schedule(static) if (n_chunks > 1)
#endif
  for (std::size_t c = 0; c < n_chunks; ++c) {
    const std::size_t end = c + 1 == n_chunks ? n : (c + 1) * kOrderedSumChunk;
    double partial = 0.0;
    for (std::size_t i = c * kOrderedSumChunk; i < end; ++i) partial += term(i);
    partials[c] = partial;
  }
  double total = 0.0;
  for (const double partial : partials) total += partial;
  return total;
}

}  // namespace cpr
