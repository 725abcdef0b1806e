// Tests for the universal tuner (src/tune): exact k-fold partitioning with
// no train->validation leaks, deterministic search-space materialization,
// bitwise-identical ranked trials across 1/2/8 tuner threads, successive
// halving promoting a planted-optimum candidate, and clean failure when a
// search space produces only broken candidates.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "apps/benchmark_app.hpp"
#include "common/evaluation.hpp"
#include "metrics/metrics.hpp"
#include "test_data.hpp"
#include "tune/cross_validator.hpp"
#include "tune/search_space.hpp"
#include "tune/tuner.hpp"
#include "util/rng.hpp"

namespace cpr {
namespace {

using common::Dataset;
using common::HyperAxis;
using common::ModelRegistry;
using common::ModelSpec;
using testdata::power_law_params;
using testdata::sample_power_law;

// ------------------------------------------------------------- k-fold

TEST(KFold, PartitionsExactlyWithoutLeaks) {
  for (const auto& [n, k] : {std::pair<std::size_t, std::size_t>{10, 2},
                             {103, 5},
                             {96, 3},
                             {7, 7}}) {
    SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k));
    const auto folds = tune::kfold_splits(n, k, 42);
    ASSERT_EQ(folds.size(), k);

    std::vector<std::size_t> all_valid;
    for (const auto& fold : folds) {
      // Per fold: train + valid partition [0, n) with no overlap.
      EXPECT_EQ(fold.train_rows.size() + fold.valid_rows.size(), n);
      std::set<std::size_t> train(fold.train_rows.begin(), fold.train_rows.end());
      EXPECT_EQ(train.size(), fold.train_rows.size());
      for (const std::size_t row : fold.valid_rows) {
        EXPECT_LT(row, n);
        EXPECT_FALSE(train.count(row)) << "row " << row << " leaked into the fit set";
      }
      all_valid.insert(all_valid.end(), fold.valid_rows.begin(), fold.valid_rows.end());
    }
    // Across folds: every row is held out exactly once, sizes differ <= 1.
    std::sort(all_valid.begin(), all_valid.end());
    ASSERT_EQ(all_valid.size(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(all_valid[i], i);
    const auto [min_fold, max_fold] = std::minmax_element(
        folds.begin(), folds.end(), [](const auto& a, const auto& b) {
          return a.valid_rows.size() < b.valid_rows.size();
        });
    EXPECT_LE(max_fold->valid_rows.size() - min_fold->valid_rows.size(), 1u);
  }
}

TEST(KFold, RejectsDegenerateSplits) {
  EXPECT_THROW(tune::kfold_splits(10, 1, 1), CheckError);
  EXPECT_THROW(tune::kfold_splits(10, 0, 1), CheckError);
  EXPECT_THROW(tune::kfold_splits(3, 4, 1), CheckError);
}

TEST(CrossValidate, MatchesManualFoldEvaluation) {
  const Dataset data = sample_power_law(120, 3, 0.1);
  const ModelSpec spec = testdata::zoo_spec("knn");
  const auto folds = tune::kfold_splits(data.size(), 3, 9);
  const auto score = tune::cross_validate("knn", spec, data, folds);

  double abs_sum = 0.0, sq_sum = 0.0;
  std::size_t held_out = 0;
  for (const auto& fold : folds) {
    auto model = ModelRegistry::instance().create("knn", spec);
    model->fit(data.subset(fold.train_rows));
    const Dataset valid = data.subset(fold.valid_rows);
    const auto predictions = model->predict_batch(valid.x);
    abs_sum += metrics::mlogq(predictions, valid.y) * static_cast<double>(valid.size());
    sq_sum += metrics::mlogq2(predictions, valid.y) * static_cast<double>(valid.size());
    held_out += valid.size();
  }
  EXPECT_EQ(score.mlogq, abs_sum / static_cast<double>(held_out));
  EXPECT_EQ(score.rmse_log, std::sqrt(sq_sum / static_cast<double>(held_out)));
}

// ------------------------------------------------------- search space

TEST(SearchSpace, EnumerableGridSweepsLexicographically) {
  const tune::SearchSpace space({HyperAxis::grid("a", {"1", "2"}),
                                 HyperAxis::grid("b", {"x", "y", "z"})});
  EXPECT_TRUE(space.enumerable());
  EXPECT_EQ(space.cardinality(), 6u);
  const auto candidates = space.materialize(24, 1);
  ASSERT_EQ(candidates.size(), 6u);
  EXPECT_EQ(candidates.front().label(), "a=1 b=x");
  EXPECT_EQ(candidates[1].label(), "a=1 b=y");
  EXPECT_EQ(candidates[3].label(), "a=2 b=x");
  EXPECT_EQ(candidates.back().label(), "a=2 b=z");
  // A tighter trial cap switches to seeded sampling but still yields
  // distinct candidates.
  const auto sampled = space.materialize(3, 1);
  ASSERT_EQ(sampled.size(), 3u);
  std::set<std::string> labels;
  for (const auto& candidate : sampled) labels.insert(candidate.label());
  EXPECT_EQ(labels.size(), 3u);
}

TEST(SearchSpace, SampledCandidatesAreDeterministicAndDeduplicated) {
  const tune::SearchSpace space({HyperAxis::linear_int("k", 1, 4),
                                 HyperAxis::log("lambda", 1e-6, 1e-3)});
  const auto first = space.materialize(8, 7);
  const auto second = space.materialize(8, 7);
  ASSERT_EQ(first.size(), 8u);
  ASSERT_EQ(second.size(), 8u);
  std::set<std::string> labels;
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].label(), second[i].label());
    labels.insert(first[i].label());
  }
  EXPECT_EQ(labels.size(), first.size());
  // A different seed draws a different candidate set.
  EXPECT_NE(space.materialize(8, 8).front().label(), first.front().label());
}

TEST(SearchSpace, AppliesCellsAxisToSpecCells) {
  tune::Candidate candidate;
  candidate.assignment = {{"cells", "12"}, {"rank", "4"}};
  ModelSpec base;
  base.params = power_law_params();
  const ModelSpec applied = candidate.apply_to(base);
  EXPECT_EQ(applied.cells, 12u);
  EXPECT_EQ(applied.hyper.at("rank"), "4");
  candidate.assignment = {{"cells", "zero"}};
  EXPECT_THROW(candidate.apply_to(base), CheckError);
}

TEST(SearchSpace, ParsesTheAxisGrammar) {
  const auto grid = tune::parse_axis("kernel=rbf|poly");
  EXPECT_EQ(grid.kind, HyperAxis::Kind::Grid);
  EXPECT_EQ(grid.values, (std::vector<std::string>{"rbf", "poly"}));

  const auto log_axis = tune::parse_axis("lambda=1e-6..1e-3:log");
  EXPECT_EQ(log_axis.kind, HyperAxis::Kind::Log);
  EXPECT_DOUBLE_EQ(log_axis.lo, 1e-6);
  EXPECT_DOUBLE_EQ(log_axis.hi, 1e-3);

  EXPECT_EQ(tune::parse_axis("k=1..8:int").kind, HyperAxis::Kind::LinearInt);
  EXPECT_EQ(tune::parse_axis("trees=8..256:logint").kind, HyperAxis::Kind::LogInt);
  EXPECT_EQ(tune::parse_axis("frac=0.1..0.9").kind, HyperAxis::Kind::Linear);

  const auto axes = tune::parse_search_space("k=1..8:int,kernel=rbf|poly");
  ASSERT_EQ(axes.size(), 2u);
  EXPECT_EQ(axes[0].name, "k");
  EXPECT_EQ(axes[1].name, "kernel");
  EXPECT_TRUE(tune::parse_search_space("").empty());
}

TEST(SearchSpace, MergeReplacesSameNameAxesAndAppendsNew) {
  const auto merged = tune::merge_axes(
      {HyperAxis::grid("a", {"1"}), HyperAxis::grid("b", {"2"})},
      {HyperAxis::grid("b", {"3", "4"}), HyperAxis::grid("c", {"5"})});
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].name, "a");
  EXPECT_EQ(merged[1].name, "b");
  EXPECT_EQ(merged[1].values, (std::vector<std::string>{"3", "4"}));
  EXPECT_EQ(merged[2].name, "c");
}

TEST(SearchSpace, EveryRegistryFamilyDeclaresAValidSpace) {
  for (const auto& family : ModelRegistry::instance().family_names()) {
    SCOPED_TRACE("family " + family);
    ASSERT_TRUE(ModelRegistry::instance().has_search_space(family));
    ModelSpec base;
    base.params = power_law_params();
    const tune::SearchSpace space(
        ModelRegistry::instance().search_space(family, base));
    EXPECT_FALSE(space.axes().empty());
    EXPECT_FALSE(space.materialize(4, 1).empty());
  }
}

/// The cpr space keeps the grid and candidate order the removed CPR-only
/// tuner swept (cells, then rank, then lambda), so tuned cpr models stay
/// reproducible; cell and rank lists shrink with the dimensionality.
TEST(SearchSpace, CprAxesArePinnedPerDimensionality) {
  struct Expected {
    std::size_t d;
    std::vector<double> cells;
    std::vector<double> ranks;
  };
  const std::vector<Expected> cases = {
      {2, {4, 8, 16}, {2, 4, 8, 16}},
      {4, {4, 8, 12}, {2, 4, 8, 16}},
      {6, {4, 6, 8, 10}, {4, 8, 16}},
  };
  const std::vector<double> lambdas = {1e-5, 1e-4};
  for (const auto& expected : cases) {
    SCOPED_TRACE("d = " + std::to_string(expected.d));
    ModelSpec base;
    for (std::size_t j = 0; j < expected.d; ++j) {
      base.params.push_back(
          grid::ParameterSpec::numerical_log("p" + std::to_string(j), 1.0, 1024.0));
    }
    const auto axes = ModelRegistry::instance().search_space("cpr", base);
    ASSERT_EQ(axes.size(), 3u);
    const std::vector<std::pair<std::string, std::vector<double>>> want = {
        {"cells", expected.cells}, {"rank", expected.ranks}, {"lambda", lambdas}};
    for (std::size_t a = 0; a < axes.size(); ++a) {
      EXPECT_EQ(axes[a].name, want[a].first);
      EXPECT_EQ(axes[a].kind, HyperAxis::Kind::Grid);
      ASSERT_EQ(axes[a].values.size(), want[a].second.size()) << axes[a].name;
      for (std::size_t v = 0; v < axes[a].values.size(); ++v) {
        EXPECT_EQ(std::stod(axes[a].values[v]), want[a].second[v]) << axes[a].name;
      }
    }
    // Candidate order: cells outermost, lambda innermost.
    const tune::SearchSpace space(axes);
    const auto candidates = space.materialize(space.cardinality(), 1);
    ASSERT_EQ(candidates.size(),
              expected.cells.size() * expected.ranks.size() * lambdas.size());
    std::size_t k = 0;
    for (const auto& cells : axes[0].values) {
      for (const auto& rank : axes[1].values) {
        for (const auto& lambda : axes[2].values) {
          EXPECT_EQ(candidates[k++].label(),
                    "cells=" + cells + " rank=" + rank + " lambda=" + lambda);
        }
      }
    }
  }
}

// ------------------------------------------------------------- tuner

tune::TunerOptions small_options(std::size_t threads) {
  tune::TunerOptions options;
  options.max_trials = 8;
  options.folds = 2;
  options.rungs = 2;
  options.threads = threads;
  options.seed = 7;
  return options;
}

/// The tuner's determinism contract: for a fixed seed the ranked trials are
/// bitwise-identical no matter how many worker threads evaluate candidates.
TEST(Tuner, SeededDeterminismAcrossThreadCounts) {
  const Dataset data = sample_power_law(256, 11, 0.1);
  for (const std::string family : {"cpr", "rf"}) {
    SCOPED_TRACE("family " + family);
    ModelSpec base;
    base.params = power_law_params();

    const auto reference =
        tune::Tuner(small_options(1)).run(family, base, data);
    for (const std::size_t threads : {2u, 8u}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      const auto outcome =
          tune::Tuner(small_options(threads)).run(family, base, data);
      ASSERT_EQ(outcome.ranked.size(), reference.ranked.size());
      for (std::size_t i = 0; i < outcome.ranked.size(); ++i) {
        const auto& a = reference.ranked[i];
        const auto& b = outcome.ranked[i];
        EXPECT_EQ(a.index, b.index);
        EXPECT_EQ(a.config, b.config);
        EXPECT_EQ(a.rung, b.rung);
        EXPECT_EQ(a.samples, b.samples);
        EXPECT_EQ(a.mlogq, b.mlogq);        // bitwise
        EXPECT_EQ(a.rmse_log, b.rmse_log);  // bitwise
      }
      // The refit winners are the same model bit for bit.
      const Dataset probe = sample_power_law(32, 12);
      const auto expected = reference.model->predict_batch(probe.x);
      const auto got = outcome.model->predict_batch(probe.x);
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(expected[i], got[i]) << "probe row " << i;
      }
    }
  }
}

/// Successive halving must spend the full budget on the planted optimum: a
/// cubic-in-log-space dataset where only degree=3 of the OLS family fits.
TEST(Tuner, SuccessiveHalvingPromotesPlantedOptimum) {
  Rng rng(5);
  Dataset data;
  data.x = linalg::Matrix(400, 1);
  data.y.resize(400);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data.x(i, 0) = rng.log_uniform(32.0, 4096.0);
    const double u = std::log(data.x(i, 0)) - 6.0;  // centered log feature
    data.y[i] = std::exp(0.4 * u * u * u - 0.5 * u + 1.0 + rng.normal(0.0, 0.02));
  }
  ModelSpec base;
  base.params = {grid::ParameterSpec::numerical_log("x", 32.0, 4096.0)};

  tune::TunerOptions options;
  options.folds = 2;
  options.rungs = 2;
  options.eta = 3.0;
  options.seed = 3;
  options.threads = 2;
  const tune::SearchSpace space({HyperAxis::grid("degree", {"1", "2", "3"}),
                                 HyperAxis::grid("ridge", {"1e-8"})});
  const auto outcome = tune::Tuner(options).run("ols", base, data, space);

  // The winner is the planted degree and was evaluated on the full budget...
  EXPECT_EQ(outcome.ranked.front().config, "degree=3 ridge=1e-8");
  EXPECT_EQ(outcome.ranked.front().samples, data.size());
  EXPECT_EQ(outcome.best_spec.hyper.at("degree"), "3");
  // ...while the losers were eliminated at the cheap first rung.
  ASSERT_EQ(outcome.ranked.size(), 3u);
  for (std::size_t i = 1; i < outcome.ranked.size(); ++i) {
    EXPECT_LT(outcome.ranked[i].rung, outcome.ranked.front().rung);
    EXPECT_LT(outcome.ranked[i].samples, data.size());
    EXPECT_GT(outcome.ranked[i].mlogq, outcome.ranked.front().mlogq);
  }
}

/// Tuned through the registered `cpr` space, the matmul model predicts a
/// fresh test set to MLogQ < 0.1.
TEST(Tuner, TunedCprOnMatmulSelectsReasonableModel) {
  const auto mm = apps::make_matmul();
  const Dataset train = mm->generate_dataset(4096, 21);
  const Dataset test = mm->generate_dataset(256, 22);
  ModelSpec base;
  base.params = mm->parameters();
  tune::TunerOptions options;
  options.threads = 2;
  const auto outcome = tune::Tuner(options).run("cpr", base, train);
  EXPECT_LT(common::evaluate_mlogq(*outcome.model, test), 0.1);
}

TEST(Tuner, WinnerRefitMatchesManualConstruction) {
  const Dataset data = sample_power_law(180, 17, 0.1);
  ModelSpec base;
  base.params = power_law_params();
  const auto outcome = tune::Tuner(small_options(2)).run("knn", base, data);

  auto manual = ModelRegistry::instance().create("knn", outcome.best_spec);
  manual->fit(data);
  const Dataset probe = sample_power_law(24, 18);
  for (std::size_t i = 0; i < probe.size(); ++i) {
    EXPECT_EQ(manual->predict(probe.config(i)), outcome.model->predict(probe.config(i)));
  }
}

TEST(Tuner, AllCandidatesFailingThrowsCleanly) {
  const Dataset data = sample_power_law(64, 19);
  ModelSpec base;
  base.params = power_law_params();
  // "neighbors" is not a knn hyper key: every candidate is rejected by the
  // registry, and the tuner reports the underlying cause.
  const tune::SearchSpace space({HyperAxis::grid("neighbors", {"1", "2"})});
  try {
    tune::Tuner(small_options(2)).run("knn", base, data, space);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("neighbors"), std::string::npos);
  }
}

TEST(Tuner, RejectsDegenerateOptions) {
  const Dataset data = sample_power_law(64, 20);
  ModelSpec base;
  base.params = power_law_params();
  auto options = small_options(1);
  options.rungs = 0;
  EXPECT_THROW(tune::Tuner(options).run("knn", base, data), CheckError);
  options = small_options(1);
  options.eta = 1.0;
  EXPECT_THROW(tune::Tuner(options).run("knn", base, data), CheckError);
  EXPECT_THROW(tune::Tuner(small_options(1)).run("no-such-family", base, data),
               CheckError);
  EXPECT_THROW(tune::Tuner(small_options(1)).run("knn", base,
                                                 sample_power_law(3, 21)),
               CheckError);
}

}  // namespace
}  // namespace cpr
