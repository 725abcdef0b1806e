#pragma once
// Shared pieces of the repository benchmark harness (perfbench/run.py drives
// it): timing helpers, a flat JSON result writer, the in-memory span
// recorder behind the traced run, and the seeded workload inputs.
//
// Every input the program sees is generated here from the workload seed, so
// the same seed gives the same datasets, configuration streams and OBSERVE
// values in every process of one run (fixture, layer probes, load client).

#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "apps/benchmark_app.hpp"
#include "common/dataset.hpp"
#include "common/model_registry.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

inline double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
double peak_rss_mib();

/// One flat JSON object: numbers keep all 17 significant digits.
class JsonObject {
 public:
  void num(const std::string& key, double value);
  void str(const std::string& key, const std::string& value);
  void flag(const std::string& key, bool value);
  /// A nested, already-rendered JSON value.
  void raw(const std::string& key, const std::string& json);
  std::string render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// One timed request or call: the window (second of the phase, or pass) it
/// was due in, its latency (NaN when it failed) and how late it was sent.
struct Sample {
  std::size_t window = 0;
  double latency_s = 0.0;
  double lag_s = 0.0;
};

/// Latency of a phase, robust to short stalls of a shared machine. The
/// phase is cut into windows; a window whose p99 send lag exceeds
/// `lag_bound_s` is invalid, since the generator ran late, and is left out.
/// Each percentile is the median over the valid windows of that window's
/// own percentile, so a stall that hits a minority of the windows does not
/// move it. With no valid window the percentiles are NaN (null in JSON):
/// the phase timed the host, not the program.
struct WindowStat {
  double p50_s = 0.0, p99_s = 0.0, lag_p99_s = 0.0;
  std::size_t count = 0;
  bool valid = false;
};
struct WindowedLatency {
  double p50_s = 0.0, p99_s = 0.0, lag_p99_s = 0.0;
  std::size_t count = 0, windows = 0, valid_windows = 0;
  std::vector<WindowStat> per_window;
  bool valid() const { return windows > 0 && 2 * valid_windows >= windows; }
  std::string json(double scale) const;
};
/// One window's percentiles; valid when its p99 send lag is within the bound.
WindowStat window_stat(const std::vector<double>& latencies, const std::vector<double>& lags,
                       double lag_bound_s);
/// The phase summary over its windows (send_lag_p99 is left 0).
WindowedLatency combine_windows(std::vector<WindowStat> windows);
/// Groups timed samples by window, then combines the windows.
WindowedLatency summarize_windows(const std::vector<Sample>& samples, double lag_bound_s);

/// Spans recorded from the harness around its calls into each layer. Kept in
/// memory, written as Chrome trace JSON at the end of the run. A span has a
/// name, start, end, its own id, its parent's id (0 = root) and the id of
/// the request it belongs to (its trace lane), so the spans of one request
/// share an id. Disabled (the untraced run), every call is a no-op.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Records a finished span; returns its id (0 when disabled).
  std::uint64_t add(const std::string& name, std::uint64_t start_ns, std::uint64_t end_ns,
                    std::uint64_t parent = 0, std::uint64_t request = 0);

  /// Opens a span now and returns its id, so children can name it as their
  /// parent before it ends; close() stamps the end.
  std::uint64_t open(const std::string& name, std::uint64_t parent = 0);
  void close(std::uint64_t id);

  /// Writes the Chrome trace file; false on I/O failure.
  bool write(const std::string& path) const;

  /// RAII span around one harness call.
  class Scope {
   public:
    Scope(Spans& spans, const std::string& name, std::uint64_t parent = 0)
        : spans_(spans), id_(spans.open(name, parent)) {}
    ~Scope() { spans_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t id() const { return id_; }

   private:
    Spans& spans_;
    std::uint64_t id_;
  };

 private:
  struct Span {
    std::string name;
    std::uint64_t start_ns, end_ns, id, parent, request;
  };
  bool enabled_;
  std::vector<Span> spans_;  // span id = index + 1
};

/// The host-speed reference (host_reference.cpp): a CP-model evaluation
/// kernel of the benchmark's own, timed between the fits and predict passes
/// of a run. A figure divided by the reference's median time over the run,
/// times kNominalSeconds, is that figure on a host that runs the reference
/// in kNominalSeconds: the host's drift from run to run cancels, and any
/// change to the program shows in full, since the program never runs the
/// reference's code.
class HostReference {
 public:
  /// The reference's time on the 4-vCPU machine the benchmark was tuned on.
  static constexpr double kNominalSeconds = 0.03;

  HostReference();
  /// Median wall seconds of 8 passes; throws if two passes differ.
  double measure();
  /// Every measure() result so far.
  const std::vector<double>& all() const { return all_; }

 private:
  void pass();
  std::vector<double> factors_, points_, values_, first_, all_;
  int threads_;
};

/// `figure` at the host speed under which the reference takes
/// kNominalSeconds, given the reference's time over the same run.
inline double at_nominal_speed(double figure, double reference_seconds) {
  return figure * HostReference::kNominalSeconds / reference_seconds;
}

// ----------------------------------------------------------- workload inputs

/// The Kripke application of Table 2 (9 parameters).
const cpr::apps::BenchmarkApp& kripke();

/// Model families are fitted through the registry with the benchmark's
/// fixed hyper-parameters: rank 16, 8 cells per mode, lambda 1e-4, the
/// family's default sweeps and restarts (cpr-online: every sweep).
cpr::common::ModelSpec model_spec(const std::string& family);
inline constexpr std::size_t kRank = 16;
inline constexpr std::size_t kCells = 8;
inline constexpr double kLambda = 1e-4;

cpr::common::Dataset training_set(std::uint64_t seed, std::size_t n);
cpr::common::Dataset heldout_set(std::uint64_t seed, std::size_t n);

/// A seeded stream of Kripke configurations in which no two are equal: the
/// serve-miss stream.
class DistinctConfigs {
 public:
  explicit DistinctConfigs(std::uint64_t seed);
  std::vector<cpr::grid::Config> take(std::size_t n);

 private:
  cpr::Rng rng_;
  std::set<cpr::grid::Config> seen_;
};

/// The first `n` configurations of DistinctConfigs(seed).
std::vector<cpr::grid::Config> distinct_configs(std::uint64_t seed, std::size_t n);

/// The serve-hot-observe working set: 1024 distinct configurations.
inline constexpr std::size_t kHotSetSize = 1024;
std::vector<cpr::grid::Config> hot_set(std::uint64_t seed);

/// `%.17g`-joined values, the protocol's configuration syntax.
std::string format_config(const cpr::grid::Config& x);

/// Row-stacks configurations into the n x d matrix predict_batch takes.
cpr::linalg::Matrix to_matrix(const std::vector<cpr::grid::Config>& configs);

/// True when both vectors hold the same doubles bit for bit.
bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b);

// ------------------------------------------------------------- subcommands

/// Per-layer probes over a fitted model (probes.cpp): times each layer's
/// public entry points from outside and records the results into `out`.
void run_layer_probes(const cpr::common::Dataset& train,
                      const cpr::common::Regressor& model,
                      const std::vector<cpr::grid::Config>& queries,
                      const std::string& archive_path, std::uint64_t seed, Spans& spans,
                      const std::string& profile_trace_path, JsonObject& out);

/// The open-loop TCP load client of the serve workloads (load_client.cpp).
int run_load_client(const cpr::CliArgs& args);

}  // namespace perfbench
