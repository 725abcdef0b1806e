#include "common/regressor.hpp"

#include <exception>

namespace cpr::common {

void Regressor::save(SerialSink&) const {
  CPR_CHECK_MSG(false, "model family '" << type_tag()
                                        << "' does not support serialization");
}

void Regressor::observe(const grid::Config&, double) {
  CPR_CHECK_MSG(false, "model family '" << type_tag()
                                        << "' does not support online observation");
}

void Regressor::refresh() {
  CPR_CHECK_MSG(false, "model family '" << type_tag()
                                        << "' does not support online refresh");
}

std::vector<double> Regressor::predict_batch(const linalg::Matrix& x) const {
  std::vector<double> out(x.rows());
  // Exceptions must not unwind out of an OpenMP region (that terminates the
  // process, even for a region the if clause runs serially); capture the
  // first one and rethrow it on the calling thread.
  std::exception_ptr error;
#ifdef CPR_HAVE_OPENMP
#pragma omp parallel for schedule(dynamic, 16) if (x.rows() >= kMinParallelRows)
#endif
  for (std::size_t i = 0; i < x.rows(); ++i) {
    try {
      out[i] = predict(grid::Config(x.row_ptr(i), x.row_ptr(i) + x.cols()));
    } catch (...) {
#ifdef CPR_HAVE_OPENMP
#pragma omp critical(regressor_predict_batch_error)
#endif
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
  return out;
}

}  // namespace cpr::common
