// Per-layer probes of the traced run. Each probe times one layer's public
// entry points from outside the library, on the workload's own training set,
// fitted model and query stream, and wraps the call in a harness span. The
// linalg phases come from the library's existing obs::Profiler, enabled only
// around the completion probe.

#include <cmath>
#include <fstream>
#include <limits>

#include "completion/als.hpp"
#include "core/model_file.hpp"
#include "grid/discretization.hpp"
#include "harness.hpp"
#include "obs/profile.hpp"
#include "tensor/cp_model.hpp"
#include "tensor/sparse_tensor.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace cpr;

namespace {

/// Keeps probe results observable so the timed loops are not optimized out.
volatile double g_sink = 0.0;

/// Median over `passes` of one pass's time per item, in nanoseconds.
template <typename Pass>
double per_item_ns(std::size_t items, int passes, Pass&& pass) {
  std::vector<double> per_item;
  for (int p = 0; p < passes; ++p) {
    const std::uint64_t start = now_ns();
    pass();
    per_item.push_back(static_cast<double>(now_ns() - start) /
                       static_cast<double>(std::max<std::size_t>(1, items)));
  }
  return median(per_item);
}

}  // namespace

void run_layer_probes(const common::Dataset& train, const common::Regressor& model,
                      const std::vector<grid::Config>& queries,
                      const std::string& archive_path, std::uint64_t seed, Spans& spans,
                      const std::string& profile_trace_path, JsonObject& out) {
  Spans::Scope root(spans, "layer_probes");
  const grid::Discretization grid(kripke().parameters(), kCells);

  // grid: binning the training set into cells and aggregating cell means.
  tensor::SparseTensor observed(grid.dims());
  std::size_t observed_cells = 0;
  {
    Spans::Scope span(spans, "grid.bin", root.id());
    std::vector<double> times;
    for (int rep = 0; rep < 3; ++rep) {
      const std::uint64_t start = now_ns();
      tensor::SparseTensor::Accumulator accumulator(grid.dims());
      for (std::size_t i = 0; i < train.size(); ++i) {
        accumulator.add(grid.cell_of(train.config(i)), train.y[i]);
      }
      observed = accumulator.build();
      observed_cells = accumulator.distinct_cells();
      times.push_back(seconds_since(start));
    }
    out.num("grid.bin_s", median(times));
    out.num("grid.observed_cells", static_cast<double>(observed_cells));
    out.num("tensor.nnz", static_cast<double>(observed.nnz()));
  }

  // completion: one ALS run on the log-centred tensor, as CprModel::fit
  // runs its first restart, with the Profiler timing the linalg phases.
  observed.transform_values([](double v) { return std::log(v); });
  double log_sum = 0.0;
  for (std::size_t e = 0; e < observed.nnz(); ++e) log_sum += observed.value(e);
  const double log_mean = log_sum / static_cast<double>(observed.nnz());
  observed.transform_values([log_mean](double v) { return v - log_mean; });

  tensor::CpModel cp(grid.dims(), kRank);
  {
    Spans::Scope span(spans, "completion.als_complete", root.id());
    completion::CompletionOptions options;
    options.regularization = kLambda;
    options.max_sweeps = 100;
    options.tol = 1e-6;
    options.seed = seed;
    Rng rng(seed);
    cp.init_ones(rng, 0.3);
    auto& profiler = obs::Profiler::instance();
    profiler.reset();
    profiler.set_enabled(/*timing=*/true, /*capture=*/true);
    const std::uint64_t start = now_ns();
    const completion::CompletionReport report =
        completion::als_complete(observed, cp, options);
    const double als_s = seconds_since(start);
    profiler.set_enabled(false);
    out.num("completion.als_s", als_s);
    out.num("completion.sweeps", report.sweeps);
    out.num("completion.sweep_ms", als_s * 1e3 / std::max(1, report.sweeps));
    out.num("completion.final_objective", report.final_objective());

    std::uint64_t fused_ns = 0, fused_calls = 0, potrf_ns = 0, potrf_calls = 0;
    for (const auto& phase : profiler.stats()) {
      if (phase.name == "fused_gram_rhs") fused_ns = phase.total_ns, fused_calls = phase.calls;
      if (phase.name == "potrf") potrf_ns = phase.total_ns, potrf_calls = phase.calls;
    }
    out.num("linalg.fused_gram_rhs_s", static_cast<double>(fused_ns) * 1e-9);
    out.num("linalg.fused_gram_rhs_calls", static_cast<double>(fused_calls));
    out.num("linalg.potrf_s", static_cast<double>(potrf_ns) * 1e-9);
    out.num("linalg.potrf_calls", static_cast<double>(potrf_calls));
    // Computed, not counted: every sweep assembles, for each of the d modes,
    // one Hadamard row per observed entry into the upper-triangle Gram
    // (R(R+1)/2 multiply-adds) and the right-hand side (R multiply-adds).
    const double rank = static_cast<double>(kRank);
    const double flops = 2.0 * (rank * (rank + 1.0) / 2.0 + rank) *
                         static_cast<double>(grid.order()) *
                         static_cast<double>(observed.nnz()) * report.sweeps;
    out.num("linalg.fused_gram_rhs_gflop", flops * 1e-9);
    out.num("linalg.profiler_events_dropped",
            static_cast<double>(profiler.events_dropped()));
    std::ofstream trace(profile_trace_path);
    trace << profiler.render_chrome_json();
    profiler.reset();
  }

  // tensor / grid: CP evaluation per cell and Eq.-5 interpolation per query
  // over the workload's query stream.
  std::vector<tensor::Index> cells;
  cells.reserve(queries.size());
  for (const auto& x : queries) cells.push_back(grid.cell_of(x));
  {
    Spans::Scope span(spans, "tensor.CpModel.eval", root.id());
    out.num("tensor.cp_eval_ns", per_item_ns(cells.size(), 9, [&] {
              double sum = 0.0;
              for (const auto& idx : cells) sum += cp.eval(idx);
              g_sink = sum;
            }));
  }
  {
    Spans::Scope span(spans, "grid.Discretization.interpolate", root.id());
    const auto eval = [&cp](const tensor::Index& idx) { return std::exp(cp.eval(idx)); };
    out.num("grid.interpolate_ns", per_item_ns(queries.size(), 3, [&] {
              double sum = 0.0;
              for (const auto& x : queries) sum += grid.interpolate(x, eval);
              g_sink = sum;
            }));
  }

  // core: batched inference of the workload's model at batch sizes 1 and 64.
  const linalg::Matrix all = to_matrix(queries);
  const auto batch_us = [&](std::size_t batch) {
    std::vector<double> per_query;
    for (std::size_t first = 0; first + batch <= queries.size(); first += batch) {
      linalg::Matrix rows(batch, all.cols());
      std::copy(all.row_ptr(first), all.row_ptr(first) + batch * all.cols(),
                rows.row_ptr(0));
      const std::uint64_t start = now_ns();
      g_sink = model.predict_batch(rows)[0];
      per_query.push_back(static_cast<double>(now_ns() - start) * 1e-3 /
                          static_cast<double>(batch));
    }
    return median(per_query);
  };
  {
    Spans::Scope span(spans, "core.predict_batch.1", root.id());
    out.num("core.predict_batch1_us", batch_us(1));
  }
  {
    Spans::Scope span(spans, "core.predict_batch.64", root.id());
    out.num("core.predict_batch64_us", batch_us(64));
  }

  // core: archive save and load.
  std::vector<double> save_ms, load_ms;
  for (int rep = 0; rep < 5; ++rep) {
    std::uint64_t start = now_ns();
    {
      Spans::Scope span(spans, "core.save_model_file", root.id());
      core::save_model_file(model, archive_path);
    }
    save_ms.push_back(seconds_since(start) * 1e3);
    start = now_ns();
    {
      Spans::Scope span(spans, "core.load_model_file", root.id());
      g_sink = static_cast<double>(core::load_model_file(archive_path)->input_dims());
    }
    load_ms.push_back(seconds_since(start) * 1e3);
  }
  out.num("core.save_ms", median(save_ms));
  out.num("core.load_ms", median(load_ms));
}

}  // namespace perfbench
