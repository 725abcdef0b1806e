// The host-speed reference of the benchmark (see METRICS.md, "Host-speed
// correction"): a fixed CP-model evaluation written here, in the benchmark,
// and never in the program, so no change to the program can move it. It
// evaluates a rank-16, 9-mode, 8-cell model at 4096 fixed points by
// multilinear interpolation over the 2^9 corners of each point's cell, like
// predict_batch does, on an OpenMP team of one thread per core of the
// process. On a shared host whose speed drifts by a quarter within minutes,
// it slows and speeds up with the fits and predict passes timed next to it.

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "harness.hpp"

namespace perfbench {

namespace {
constexpr int kRefModes = 9;
constexpr int kRefCells = 8;
constexpr int kRefRank = 16;
constexpr int kRefQueries = 4096;
constexpr int kRefPasses = 8;

int process_cores() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  ::pthread_getaffinity_np(::pthread_self(), sizeof(cpus), &cpus);
  return std::max(1, CPU_COUNT(&cpus));
}
}  // namespace

HostReference::HostReference()
    : factors_(kRefModes * kRefCells * kRefRank),
      points_(static_cast<std::size_t>(kRefQueries) * kRefModes),
      values_(kRefQueries),
      threads_(process_cores()) {
  cpr::Rng rng(99);
  for (double& f : factors_) f = 0.5 + rng.uniform();
  for (double& x : points_) x = rng.uniform() * (kRefCells - 1.001);
}

void HostReference::pass() {
  const double* factors = factors_.data();
  const double* points = points_.data();
  double* values = values_.data();
  // The team size is fixed here, so neither OMP_NUM_THREADS nor a thread cap
  // the program sets moves the reference.
#pragma omp parallel for schedule(dynamic, 16) num_threads(threads_)
  for (int i = 0; i < kRefQueries; ++i) {
    const double* x = points + static_cast<std::size_t>(i) * kRefModes;
    int low[kRefModes];
    double weight[kRefModes];
    for (int m = 0; m < kRefModes; ++m) {
      low[m] = static_cast<int>(x[m]);
      weight[m] = x[m] - low[m];
    }
    double total = 0.0;
    for (int corner = 0; corner < (1 << kRefModes); ++corner) {
      double w = 1.0;
      double product[kRefRank];
      for (int r = 0; r < kRefRank; ++r) product[r] = 1.0;
      for (int m = 0; m < kRefModes; ++m) {
        const int bit = (corner >> m) & 1;
        w *= bit ? weight[m] : 1.0 - weight[m];
        const double* row = factors + (m * kRefCells + low[m] + bit) * kRefRank;
        for (int r = 0; r < kRefRank; ++r) product[r] *= row[r];
      }
      double sum = 0.0;
      for (int r = 0; r < kRefRank; ++r) sum += product[r];
      total += w * sum;
    }
    values[i] = total;
  }
}

double HostReference::measure() {
  std::vector<double> seconds(kRefPasses);
  for (double& s : seconds) {
    const std::uint64_t start = now_ns();
    pass();
    s = seconds_since(start);
    // Every pass computes the same values, bit for bit: a pass the compiler
    // skipped, or a broken build, would not.
    if (first_.empty()) {
      first_ = values_;
    } else if (std::memcmp(first_.data(), values_.data(), values_.size() * sizeof(double)) != 0) {
      throw std::runtime_error("host reference: a pass computed different values");
    }
  }
  const double result = median(seconds);
  all_.push_back(result);
  return result;
}

}  // namespace perfbench
