#pragma once
// Element-wise loss functions for generalized tensor completion (Section
// 4.2.2). Each loss is a function rho(r) of the residual r on a link:
//   log link       r = log m - log t   (m, t > 0; LogQuadraticLoss, HuberLogLoss)
//   identity link  r = m - t           (LeastSquaresLoss)
// and supplies rho, rho' and rho''. The AMN completer (amn.hpp) fits under
// any of the three; LogQuadraticLoss is the paper's MLogQ2 extrapolation
// loss. value/d1/d2 give phi(t, m) and its derivatives in the model output m.

#include <algorithm>
#include <cmath>
#include <limits>

namespace cpr::completion {

namespace detail {

/// phi(t, m) = rho(link(m) - link(t)), with the chain-rule derivatives in m:
/// on the log link dphi/dm = rho'(r)/m and d2phi/dm2 = (rho''(r) - rho'(r))/m^2.
template <typename Loss>
struct LinkedLoss {
  static double link(double x) { return Loss::log_link ? std::log(x) : x; }
  static double value(double t, double m) {
    if (Loss::log_link && !(m > 0.0 && t > 0.0)) {
      return std::numeric_limits<double>::infinity();
    }
    return Loss::rho(link(m) - link(t));
  }
  static double d1(double t, double m) {
    const double r = link(m) - link(t);
    return Loss::log_link ? Loss::rho1(r) / m : Loss::rho1(r);
  }
  static double d2(double t, double m) {
    const double r = link(m) - link(t);
    return Loss::log_link ? (Loss::rho2(r) - Loss::rho1(r)) / (m * m) : Loss::rho2(r);
  }
};

}  // namespace detail

/// phi(t, m) = (m - t)^2: the interpolation loss (on log-transformed data).
struct LeastSquaresLoss : detail::LinkedLoss<LeastSquaresLoss> {
  static constexpr bool log_link = false;
  static double rho(double r) { return r * r; }
  static double rho1(double r) { return 2.0 * r; }
  static double rho2(double /*r*/) { return 2.0; }
};

/// phi(t, m) = (log m - log t)^2: MLogQ2, the extrapolation loss (m, t > 0).
struct LogQuadraticLoss : detail::LinkedLoss<LogQuadraticLoss> {
  static constexpr bool log_link = true;
  static double rho(double r) { return r * r; }
  static double rho1(double r) { return 2.0 * r; }
  static double rho2(double /*r*/) { return 2.0; }
};

/// Huber loss on the log accuracy ratio: quadratic for |log(m/t)| <= delta,
/// linear beyond — robust to corrupted measurements (stragglers, timer
/// glitches) that would dominate a squared loss.
struct HuberLogLoss : detail::LinkedLoss<HuberLogLoss> {
  static constexpr bool log_link = true;
  static constexpr double delta = 1.0;
  static double rho(double r) {
    return std::abs(r) <= delta ? r * r : 2.0 * delta * std::abs(r) - delta * delta;
  }
  static double rho1(double r) {
    return std::abs(r) <= delta ? 2.0 * r : 2.0 * delta * (r > 0 ? 1.0 : -1.0);
  }
  /// The curvature Newton uses: the true rho'' (2 inside the quadratic zone,
  /// 0 outside), raised where needed so that rho'' - rho' >= 0.2. That floor
  /// keeps d2phi/dm2 positive in the linear zone.
  static double rho2(double r) {
    return std::max(std::abs(r) <= delta ? 2.0 : 0.0, rho1(r) + 0.2);
  }
};

}  // namespace cpr::completion
