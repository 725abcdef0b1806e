// serve_drift — online learning under drift in the serving path.
//
// The scenario the OBSERVE/REFIT verbs exist for: a model is fitted on one
// cost function, deployed, and then the true costs shift (new hardware, a
// library upgrade, a different input distribution). Clients keep reporting
// observed runtimes through OBSERVE; the server refits in the background
// and atomically publishes the new generation. This bench drives that whole
// loop in-process and gates on the two promises that make it useful:
//
//   1. RECOVERY — after REFIT, both the rolling drift telemetry and a fixed
//      probe set's prediction error drop below half their drifted values.
//   2. ISOLATION — concurrent PREDICT traffic rides the old generation
//      while the refit runs: its p99 during the refit phase stays under a
//      fixed bound (refits happen on the trainer thread, never the request
//      path), and not a single request sees an ERR.
//
// Phases: baseline PREDICT traffic → drifted OBSERVE stream (truth shifts
// to 8x the fitted law, ln 8 ≈ 2.08 in log space) → refit cycles with the
// clients still hammering → post-refit OBSERVE stream to re-score drift.
// The OBSERVE/REFIT sequence is deterministic for a fixed seed, so the
// drift/probe error records are stable baseline material; the latency
// records carry the usual machine noise.
//
// Emits perf records (suite "serve_drift", cases like "drift/logerr_after"
// and "predict/p99_during_refit") via --json for the cpr_bench gate.
//
// Flags: --clients=<n> --window=<n> --refit-cycles=<n> --p99-bound-us=<n>
//        --seed=<n> --json=<path> --csv=<path>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/model_registry.hpp"
#include "core/model_file.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace cpr {
namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void die(const std::string& message) {
  std::cerr << "serve_drift: " << message << "\n";
  std::abort();
}

/// The law the archive is fitted on (the paper's separable power law).
double fitted_law(double x, double y) {
  return 1e-6 * std::pow(x, 1.5) * std::pow(y, 0.8);
}

/// The drifted truth OBSERVEs report after the shift: a constant factor,
/// so the expected drift error is exactly ln 8 ≈ 2.08 in log space.
double drifted_law(double x, double y) { return 8.0 * fitted_law(x, y); }

grid::Config random_config(Rng& rng) {
  return {rng.log_uniform(32.0, 4096.0), rng.log_uniform(32.0, 4096.0)};
}

std::string predict_line(const grid::Config& config) {
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "PREDICT pl %.17g,%.17g", config[0],
                config[1]);
  return buffer;
}

std::string observe_line(const grid::Config& config, double seconds) {
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer), "OBSERVE pl %.17g,%.17g %.17g",
                config[0], config[1], seconds);
  return buffer;
}

/// Builds the model directory: a cpr-online archive fitted on a SMALL
/// sample of the pre-drift law, so the streamed observations dominate the
/// per-cell statistics once the refit blends them in.
void build_fixture_dir(const std::string& dir, std::uint64_t seed) {
  std::filesystem::create_directories(dir);
  Rng rng(seed);
  common::Dataset data;
  const std::size_t n = 128;
  data.x = linalg::Matrix(n, 2);
  data.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    data.x(i, 0) = rng.log_uniform(32.0, 4096.0);
    data.x(i, 1) = rng.log_uniform(32.0, 4096.0);
    data.y[i] = fitted_law(data.x(i, 0), data.x(i, 1)) *
                std::exp(rng.normal(0.0, 0.05));
  }
  common::ModelSpec spec;
  spec.params = {grid::ParameterSpec::numerical_log("x", 32.0, 4096.0),
                 grid::ParameterSpec::numerical_log("y", 32.0, 4096.0)};
  spec.cells = 6;
  auto model = common::ModelRegistry::instance().create("cpr-online", spec);
  model->fit(data);
  core::save_model_file(*model, core::model_file_path(dir, "pl"));
}

// ---------------------------------------------------------- client traffic

enum Phase : int { kBaseline = 0, kDriftStream, kRefit, kPost, kPhases };

/// One closed-loop in-process client: hammers PREDICT and records each
/// call's latency under the phase the run was in when the call STARTED.
struct ClientResult {
  std::vector<double> latencies[kPhases];
  std::uint64_t errors = 0;
};

void run_client(serve::Server& server, const std::atomic<int>& phase,
                const std::atomic<bool>& stop, std::uint64_t seed,
                ClientResult& result) {
  Rng rng(seed);
  // A modest config pool: repeats hit the cache, fresh ones miss — both
  // sides of the PREDICT path stay under load while generations swap.
  std::vector<std::string> lines;
  for (int i = 0; i < 256; ++i) lines.push_back(predict_line(random_config(rng)));
  while (!stop.load(std::memory_order_relaxed)) {
    const auto p = phase.load(std::memory_order_relaxed);
    const auto& line = lines[static_cast<std::size_t>(rng.uniform_int(0, 255))];
    const auto start = Clock::now();
    const auto reply = server.handle_line(line);
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (reply.text.rfind("OK ", 0) != 0) ++result.errors;
    result.latencies[p].push_back(seconds);
  }
}

double percentile(std::vector<double>& sorted_in_place, double q) {
  if (sorted_in_place.empty()) return 0.0;
  std::sort(sorted_in_place.begin(), sorted_in_place.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted_in_place.size() - 1) + 0.5);
  return sorted_in_place[std::min(rank, sorted_in_place.size() - 1)];
}

// ----------------------------------------------------------------- driver

/// Streams `count` drifted observations through OBSERVE; dies on any ERR.
void stream_observations(serve::Server& server, Rng& rng, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const grid::Config config = random_config(rng);
    const auto reply = server.handle_line(
        observe_line(config, drifted_law(config[0], config[1])));
    if (reply.text.rfind("OK observed", 0) != 0) {
      die("OBSERVE failed: " + reply.text);
    }
  }
}

/// Mean |log(predicted/drifted truth)| over a fixed probe set, evaluated
/// through the full PREDICT path (cache included: a stale generation's
/// entries surviving the refit would show up right here).
double probe_log_error(serve::Server& server, const std::vector<grid::Config>& probes) {
  double total = 0.0;
  for (const grid::Config& config : probes) {
    const auto reply = server.handle_line(predict_line(config));
    if (reply.text.rfind("OK ", 0) != 0) die("probe PREDICT failed: " + reply.text);
    const double predicted = std::stod(reply.text.substr(3));
    total += std::abs(std::log(predicted / drifted_law(config[0], config[1])));
  }
  return total / static_cast<double>(probes.size());
}

}  // namespace
}  // namespace cpr

int main(int argc, char** argv) {
  using namespace cpr;
  const CliArgs args(argc, argv);

  const std::size_t clients = static_cast<std::size_t>(args.get_int("clients", 4));
  const std::size_t window = static_cast<std::size_t>(args.get_int("window", 128));
  const std::size_t refit_cycles =
      static_cast<std::size_t>(args.get_int("refit-cycles", 3));
  const double p99_bound =
      static_cast<double>(args.get_int("p99-bound-us", 10000)) / 1e6;
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  const std::string dir = (std::filesystem::temp_directory_path() /
                           ("cpr_serve_drift_" + std::to_string(::getpid())))
                              .string();
  build_fixture_dir(dir, seed);

  serve::ServerOptions options;
  options.model_dir = dir;
  options.batcher.max_wait_us = 50;
  options.drift_window = window;
  serve::Server server(options);

  std::atomic<int> phase{kBaseline};
  std::atomic<bool> stop{false};
  std::vector<ClientResult> results(clients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      run_client(server, phase, stop, 1000 + seed + c, results[c]);
    });
  }

  // Phase 0 — baseline: the fitted law still holds, clients hammer PREDICT.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));

  // Phase 1 — the truth shifts: stream drifted OBSERVEs until the rolling
  // window is saturated with post-shift scores.
  phase.store(kDriftStream);
  Rng observe_rng(seed + 7);
  stream_observations(server, observe_rng, 2 * window);
  const double drift_before = server.drift().abs_log_error;

  Rng probe_rng(seed + 11);
  std::vector<grid::Config> probes;
  for (int i = 0; i < 64; ++i) probes.push_back(random_config(probe_rng));
  const double probe_before = probe_log_error(server, probes);

  // Phase 2 — refit cycles under full PREDICT load: each streams another
  // batch of drifted observations and publishes a new generation.
  phase.store(kRefit);
  double refit_seconds = 0.0;
  for (std::size_t cycle = 0; cycle < refit_cycles; ++cycle) {
    stream_observations(server, observe_rng, window / 2);
    const auto start = Clock::now();
    const auto reply = server.handle_line("REFIT pl");
    refit_seconds += std::chrono::duration<double>(Clock::now() - start).count();
    if (reply.text.rfind("OK refit pl ", 0) != 0) die("REFIT failed: " + reply.text);
  }
  refit_seconds /= static_cast<double>(refit_cycles);

  // Phase 3 — post-refit: the same drifted truth scored against the new
  // generations must show the drift telemetry recovering.
  phase.store(kPost);
  stream_observations(server, observe_rng, window);
  const double drift_after = server.drift().abs_log_error;
  const double probe_after = probe_log_error(server, probes);

  stop.store(true);
  for (auto& thread : threads) thread.join();

  std::vector<double> latencies[kPhases];
  std::uint64_t errors = 0;
  for (const auto& result : results) {
    errors += result.errors;
    for (int p = 0; p < kPhases; ++p) {
      latencies[p].insert(latencies[p].end(), result.latencies[p].begin(),
                          result.latencies[p].end());
    }
  }
  const double p99_baseline = percentile(latencies[kBaseline], 0.99);
  const double p99_refit = percentile(latencies[kRefit], 0.99);

  // ------------------------------------------------------------- the gate
  if (errors != 0) die(std::to_string(errors) + " PREDICT calls got ERR replies");
  if (latencies[kRefit].empty()) die("no PREDICT traffic during the refit phase");
  if (!(drift_after < 0.5 * drift_before)) {
    die("drift telemetry did not recover: before=" + std::to_string(drift_before) +
        " after=" + std::to_string(drift_after));
  }
  if (!(probe_after < 0.5 * probe_before)) {
    die("probe error did not recover: before=" + std::to_string(probe_before) +
        " after=" + std::to_string(probe_after));
  }
  if (p99_refit > p99_bound) {
    die("PREDICT p99 during refit exceeded the bound: " +
        std::to_string(p99_refit * 1e6) + "us > " +
        std::to_string(p99_bound * 1e6) + "us");
  }
  const auto snapshot = server.request_stats().snapshot();
  if (snapshot.refits != refit_cycles) die("refit count diverged from the driver");

  Table table({"metric", "value"});
  table.add_row({"drift_logerr_before", Table::fmt(drift_before, 4)});
  table.add_row({"drift_logerr_after", Table::fmt(drift_after, 4)});
  table.add_row({"probe_logerr_before", Table::fmt(probe_before, 4)});
  table.add_row({"probe_logerr_after", Table::fmt(probe_after, 4)});
  table.add_row({"refit_wall_ms", Table::fmt(refit_seconds * 1e3, 2)});
  table.add_row({"p99_baseline_us", Table::fmt(p99_baseline * 1e6, 1)});
  table.add_row({"p99_during_refit_us", Table::fmt(p99_refit * 1e6, 1)});
  table.add_row({"predicts", std::to_string(snapshot.predicts)});
  table.add_row({"observes", std::to_string(snapshot.observes)});

  std::vector<bench::JsonRecord> records;
  records.push_back({"serve_drift", "drift/logerr_before", drift_before, 0});
  records.push_back({"serve_drift", "drift/logerr_after", drift_after, 0});
  records.push_back({"serve_drift", "probe/logerr_after", probe_after, 0});
  records.push_back({"serve_drift", "refit/wall", refit_seconds, 0});
  records.push_back({"serve_drift", "predict/p99_baseline", p99_baseline, 0});
  records.push_back({"serve_drift", "predict/p99_during_refit", p99_refit, 0});

  bench::emit(table, args, "serve_drift.csv");
  bench::emit_json(args, records);
  std::filesystem::remove_all(dir);
  return 0;
}
