// perfbench_harness — the compiled half of the repository benchmark.
//
// perfbench/run.py builds this binary next to cpr_serve and cpr_obscheck and
// calls one subcommand per step of a workload. Each subcommand prints one
// JSON object on its last stdout line.
//
//   env         compiler and flags this binary was built with
//   fit-kripke  the fit-kripke workload: dataset generation (set-up), repeated
//               Regressor::fit of `cpr`, held-out MLogQ, fp64 archive
//               save/reload with a bitwise check, in-process predict latency
//   fixture     set-up of a serve workload: dataset generation and the fit
//               of the archive the server will serve
//   fits        warm fits of a serve workload's family, timed for its fit_s
//   probes      the per-layer probes (probes.cpp) of a serve workload, over
//               its archive, training set and query stream; traced runs only
//   client      the open-loop load client of a serve workload
//   idle-spin   keeps every core busy at the lowest priority until stdin
//               closes; runs beside every workload
//
// With --trace=1, fit-kripke and fixture write their spans as Chrome trace
// JSON (fixture: into --trace-dir, so the served model directory holds only
// the archive); fit-kripke also runs the per-layer probes after its
// measured loop. A serve workload runs `probes` after its timed set-up, so
// set-up time never includes them.

#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <thread>

#include "core/model_file.hpp"
#include "harness.hpp"
#include "metrics/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace cpr;

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      std::min(values.size() - 1, static_cast<std::size_t>(std::max(1.0, rank)) - 1);
  return values[index];
}

double peak_rss_mib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {
std::string format_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}
}  // namespace

void JsonObject::num(const std::string& key, double value) {
  fields_.emplace_back(key, format_number(value));
}
void JsonObject::str(const std::string& key, const std::string& value) {
  std::string quoted(1, '"');
  quoted += obs::json_escape(value);
  quoted += '"';
  fields_.emplace_back(key, std::move(quoted));
}
void JsonObject::flag(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
}
void JsonObject::raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
}
std::string JsonObject::render() const {
  std::string text = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i) text += ',';
    text += '"';
    text += obs::json_escape(fields_[i].first);
    text += "\":";
    text += fields_[i].second;
  }
  return text + "}";
}

WindowStat window_stat(const std::vector<double>& latencies, const std::vector<double>& lags,
                       double lag_bound_s) {
  WindowStat w{percentile(latencies, 0.5), percentile(latencies, 0.99), percentile(lags, 0.99),
               latencies.size(), false};
  w.valid = !latencies.empty() && w.lag_p99_s <= lag_bound_s;
  return w;
}

WindowedLatency combine_windows(std::vector<WindowStat> windows) {
  WindowedLatency out;
  std::vector<double> p50s, p99s;
  for (const WindowStat& w : windows) {
    if (!w.valid) continue;
    ++out.valid_windows;
    out.count += w.count;
    p50s.push_back(w.p50_s);
    p99s.push_back(w.p99_s);
  }
  out.windows = windows.size();
  out.per_window = std::move(windows);
  out.p50_s = out.valid_windows ? median(p50s) : std::nan("");
  out.p99_s = out.valid_windows ? median(p99s) : std::nan("");
  return out;
}

WindowedLatency summarize_windows(const std::vector<Sample>& samples, double lag_bound_s) {
  std::map<std::size_t, std::pair<std::vector<double>, std::vector<double>>> by_window;
  std::vector<double> lags;
  for (const Sample& s : samples) {
    auto& [latencies, window_lags] = by_window[s.window];
    if (!std::isnan(s.latency_s)) latencies.push_back(s.latency_s);
    window_lags.push_back(s.lag_s);
    lags.push_back(s.lag_s);
  }
  std::vector<WindowStat> windows;
  for (const auto& [index, window] : by_window) {
    if (window.first.empty()) continue;
    windows.push_back(window_stat(window.first, window.second, lag_bound_s));
  }
  WindowedLatency out = combine_windows(std::move(windows));
  out.lag_p99_s = percentile(lags, 0.99);
  return out;
}

std::string WindowedLatency::json(double scale) const {
  JsonObject summary;
  summary.num("p50", p50_s * scale);
  summary.num("p99", p99_s * scale);
  summary.num("count", static_cast<double>(count));
  summary.num("windows", static_cast<double>(windows));
  summary.num("valid_windows", static_cast<double>(valid_windows));
  summary.num("send_lag_p99", lag_p99_s * scale);
  std::string list = "[";
  for (std::size_t i = 0; i < per_window.size(); ++i) {
    const WindowStat& w = per_window[i];
    if (i) list += ',';
    list += '[';
    list += std::to_string(w.p50_s * scale);
    list += ',';
    list += std::to_string(w.p99_s * scale);
    list += ',';
    list += std::to_string(w.lag_p99_s * scale);
    list += ']';
  }
  summary.raw("windows_p50_p99_lag", list + "]");
  return summary.render();
}

std::uint64_t Spans::add(const std::string& name, std::uint64_t start_ns,
                         std::uint64_t end_ns, std::uint64_t parent, std::uint64_t request) {
  if (!enabled_) return 0;
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back({name, start_ns, std::max(start_ns, end_ns), id, parent, request});
  return id;
}

std::uint64_t Spans::open(const std::string& name, std::uint64_t parent) {
  const std::uint64_t now = now_ns();
  return add(name, now, now, parent);
}

void Spans::close(std::uint64_t id) {
  if (id != 0) spans_[id - 1].end_ns = now_ns();
}

bool Spans::write(const std::string& path) const {
  std::vector<obs::ChromeEvent> events;
  events.reserve(spans_.size());
  for (const Span& span : spans_) {
    events.push_back({span.name,
                      span.request,
                      span.start_ns,
                      span.end_ns,
                      {{"span", std::to_string(span.id)},
                       {"parent", std::to_string(span.parent)},
                       {"request", std::to_string(span.request)}}});
  }
  std::ofstream out(path);
  out << obs::render_chrome_events(std::move(events));
  return out.good();
}

// ----------------------------------------------------------- workload inputs

const apps::BenchmarkApp& kripke() {
  static const auto app = apps::make_kripke();
  return *app;
}

common::ModelSpec model_spec(const std::string& family) {
  common::ModelSpec spec;
  spec.params = kripke().parameters();
  spec.cells = kCells;
  spec.hyper["rank"] = std::to_string(kRank);
  spec.hyper["lambda"] = common::format_hyper_value(kLambda);
  // cpr-online's cold fit stops early on some seeds' data (after a third
  // to all of its sweeps), so with the default tolerance fit_s would
  // measure the seed rather than the code. A zero tolerance runs every sweep; cpr
  // runs all its sweeps on these datasets anyway.
  if (family == "cpr-online") spec.hyper["tol"] = common::format_hyper_value(0.0);
  return spec;
}

common::Dataset training_set(std::uint64_t seed, std::size_t n) {
  return kripke().generate_dataset(n, seed * 2 + 1);
}

common::Dataset heldout_set(std::uint64_t seed, std::size_t n) {
  return kripke().generate_dataset(n, seed * 2 + 2);
}

DistinctConfigs::DistinctConfigs(std::uint64_t seed) : rng_(seed ^ 0x5eed5eed5eedull) {}

std::vector<grid::Config> DistinctConfigs::take(std::size_t n) {
  std::vector<grid::Config> configs;
  configs.reserve(n);
  while (configs.size() < n) {
    grid::Config x = kripke().sample_config(rng_);
    if (seen_.insert(x).second) configs.push_back(std::move(x));
  }
  return configs;
}

std::vector<grid::Config> distinct_configs(std::uint64_t seed, std::size_t n) {
  return DistinctConfigs(seed).take(n);
}

std::vector<grid::Config> hot_set(std::uint64_t seed) {
  return distinct_configs(seed ^ 0x407ull, kHotSetSize);
}

std::string format_config(const grid::Config& x) {
  std::string text;
  char buffer[32];
  for (std::size_t j = 0; j < x.size(); ++j) {
    std::snprintf(buffer, sizeof(buffer), "%.17g", x[j]);
    if (j) text += ",";
    text += buffer;
  }
  return text;
}

linalg::Matrix to_matrix(const std::vector<grid::Config>& configs) {
  const std::size_t d = configs.empty() ? 0 : configs.front().size();
  linalg::Matrix m(configs.size(), d);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    std::copy(configs[i].begin(), configs[i].end(), m.row_ptr(i));
  }
  return m;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

namespace {

std::vector<grid::Config> configs_of(const common::Dataset& data) {
  std::vector<grid::Config> configs;
  configs.reserve(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) configs.push_back(data.config(i));
  return configs;
}

bool same_dataset(const common::Dataset& a, const common::Dataset& b) {
  return a.x.rows() == b.x.rows() && a.x.cols() == b.x.cols() && bitwise_equal(a.y, b.y) &&
         std::memcmp(a.x.data(), b.x.data(), a.x.rows() * a.x.cols() * sizeof(double)) == 0;
}

std::string number_list(const std::vector<double>& values) {
  std::string list = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) list += ',';
    list += format_number(values[i]);
  }
  return list + "]";
}

std::uint64_t file_bytes(const std::string& path) {
  return static_cast<std::uint64_t>(std::filesystem::file_size(path));
}

// ------------------------------------------------------------------ env

int cmd_env() {
  JsonObject out;
  out.str("compiler", PERFBENCH_COMPILER);
  out.str("cxx_flags", PERFBENCH_CXX_FLAGS);
  std::cout << out.render() << "\n";
  return 0;
}

// ----------------------------------------------------------- fit-kripke

int cmd_fit_kripke(const CliArgs& args) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const auto samples = static_cast<std::size_t>(args.get_int("samples", 8192));
  const auto heldout = static_cast<std::size_t>(args.get_int("heldout", 4096));
  const double seconds = args.get_double("seconds", 10.0);
  const bool trace = args.get_bool("trace", false);
  const std::string dir = args.get_string("dir", ".");
  const std::uint64_t run_start = now_ns();
  Spans spans(trace);
  JsonObject out;
  std::uint64_t attempted = 0, failed = 0;

  // Set-up: dataset generation. It is repeated twice after every fit, so
  // the set-ups spread over the whole run like the fits and predicts do
  // (the host's speed changes within seconds), and every repeat must
  // generate the same datasets bitwise. The median is setup_s. Generation
  // is single-threaded, and a core of this shared host can run 1.5x slower
  // than the others for a whole run, so repeat i runs on the i-th of the
  // process's cores in turn and the median weighs all of them alike.
  common::Dataset train, test;
  std::vector<double> setup_seconds;
  cpu_set_t all_cpus;
  CPU_ZERO(&all_cpus);
  ::pthread_getaffinity_np(::pthread_self(), sizeof(all_cpus), &all_cpus);
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &all_cpus)) cpus.push_back(cpu);
  }
  const auto set_up = [&] {
    if (!cpus.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[setup_seconds.size() % cpus.size()], &one);
      ::pthread_setaffinity_np(::pthread_self(), sizeof(one), &one);
    }
    const std::uint64_t start = now_ns();
    common::Dataset again_train = training_set(seed, samples);
    common::Dataset again_test = heldout_set(seed, heldout);
    setup_seconds.push_back(seconds_since(start));
    ::pthread_setaffinity_np(::pthread_self(), sizeof(all_cpus), &all_cpus);
    spans.add("apps.generate_dataset", start, now_ns());
    if (train.size() == 0) {
      train = std::move(again_train);
      test = std::move(again_test);
      return;
    }
    ++attempted;
    if (!same_dataset(again_train, train) || !same_dataset(again_test, test)) {
      ++failed;
      std::cerr << "fit-kripke: dataset generation is not deterministic\n";
    }
  };
  set_up();

  // Measured, until 90% of the run has passed: a fit of `cpr` through the
  // registry at the default OpenMP team, an fp64 archive save and reload,
  // and kPredictPasses passes of predict_batch over the held-out set on the
  // reloaded model, at the default team too. Every fit must predict the
  // held-out set bitwise like the first (the fit is deterministic at any
  // thread count), and every reloaded archive and every pass bitwise like
  // that. The first fit warms the process (OpenMP team, allocator, first
  // touch of its pages) and is checked but not timed. A single-threaded
  // predict() per query would time one core, and a core of this shared
  // host runs about 1.6x faster or slower for seconds at a time; a pass
  // over all cores moves about a tenth as much. The host reference runs
  // before the first fit, after each fit and after each fit's passes;
  // fit_s and predict_p50_us are at nominal host speed (harness.hpp).
  constexpr std::size_t kPredictPasses = 64;
  const std::uint64_t deadline = run_start + static_cast<std::uint64_t>(0.9 * seconds * 1e9);
  const std::string archive = dir + "/kripke-cpr" + core::kModelFileExtension;
  const double per_query = 1.0 / static_cast<double>(test.size());
  std::vector<double> fit_seconds, reference;
  std::vector<double> pass_seconds(kPredictPasses);
  const std::vector<double> no_lag(kPredictPasses, 0.0);
  std::vector<WindowStat> fits;  // one window per fit: its passes' per-query times
  common::RegressorPtr reloaded;
  HostReference host;
  const auto measure_host = [&] {
    const std::uint64_t start = now_ns();
    const double seconds_taken = host.measure();
    spans.add("perfbench.host_reference", start, now_ns());
    return seconds_taken;
  };
  measure_host();
  do {
    auto model = common::ModelRegistry::instance().create("cpr", model_spec("cpr"));
    std::uint64_t start = now_ns();
    model->fit(train);
    const double fit_time = seconds_since(start);
    spans.add("common.Regressor.fit", start, now_ns());
    measure_host();
    std::vector<double> predictions = model->predict_batch(test.x);
    ++attempted;
    const bool timed = !reference.empty();
    if (timed) fit_seconds.push_back(fit_time);
    if (reference.empty()) {
      reference = std::move(predictions);
    } else if (!bitwise_equal(predictions, reference)) {
      ++failed;
      std::cerr << "fit-kripke: refit predictions differ from the first fit\n";
    }
    start = now_ns();
    core::save_model_file(*model, archive);
    spans.add("core.save_model_file", start, now_ns());
    start = now_ns();
    reloaded = core::load_model_file(archive);
    spans.add("core.load_model_file", start, now_ns());
    for (std::size_t pass = 0; pass < kPredictPasses; ++pass) {
      start = now_ns();
      const std::vector<double> values = reloaded->predict_batch(test.x);
      pass_seconds[pass] = seconds_since(start) * per_query;
      spans.add("core.Regressor.predict_batch", start, now_ns());
      ++attempted;
      if (!bitwise_equal(values, reference)) {
        ++failed;
        std::cerr << "fit-kripke: reloaded archive predicts differently\n";
      }
    }
    if (timed) fits.push_back(window_stat(pass_seconds, no_lag, 0.0));
    measure_host();
    set_up();
    set_up();
  } while (fit_seconds.size() < 2 || now_ns() < deadline);

  const double host_seconds = median(host.all());
  out.num("setup_s", at_nominal_speed(median(setup_seconds), host_seconds));
  out.num("setup_wall_s", median(setup_seconds));
  out.num("setup_reps", static_cast<double>(setup_seconds.size()));
  const WindowedLatency predict = combine_windows(std::move(fits));
  out.num("fit_s", at_nominal_speed(median(fit_seconds), host_seconds));
  out.num("fit_wall_s", median(fit_seconds));
  out.num("fit_count", static_cast<double>(fit_seconds.size()));
  out.raw("fit_all_s", number_list(fit_seconds));
  out.num("predict_p50_us", at_nominal_speed(predict.p50_s, host_seconds) * 1e6);
  out.raw("predict_us", predict.json(1e6));
  out.num("host_reference_s", host_seconds);
  out.raw("host_reference_all_s", number_list(host.all()));
  out.num("host_reference_nominal_s", HostReference::kNominalSeconds);
  out.num("fit_mlogq", metrics::mlogq(reference, test.y));
  out.num("model_bytes", static_cast<double>(file_bytes(archive)));
  out.num("peak_rss_mb", peak_rss_mib());
  out.num("attempted", static_cast<double>(attempted));
  out.num("failed", static_cast<double>(failed));
  out.num("samples", static_cast<double>(samples));
  out.num("apps.generate_s", median(setup_seconds));
  if (trace) {
    JsonObject layers;
    run_layer_probes(train, *reloaded, configs_of(test), archive, seed, spans,
                     dir + "/profile_trace.json", layers);
    out.raw("layers", layers.render());
    if (!spans.write(dir + "/harness_trace.json")) return 1;
  }
  std::cout << out.render() << "\n";
  return 0;
}

// -------------------------------------------------------------- fixture

int cmd_fixture(const CliArgs& args) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const auto samples = static_cast<std::size_t>(args.get_int("samples", 8192));
  const auto heldout = static_cast<std::size_t>(args.get_int("heldout", 4096));
  const std::string family = args.get_string("family", "cpr");
  const std::string model_name = args.get_string("model", "kripke-cpr");
  const std::string dir = args.get_string("dir", ".");
  const bool trace = args.get_bool("trace", false);
  const std::string trace_dir = args.get_string("trace-dir", ".");
  Spans spans(trace);
  JsonObject out;

  std::uint64_t start = now_ns();
  const common::Dataset train = training_set(seed, samples);
  const common::Dataset test = heldout_set(seed, heldout);
  out.num("apps.generate_s", seconds_since(start));
  spans.add("apps.generate_dataset", start, now_ns());

  auto model = common::ModelRegistry::instance().create(family, model_spec(family));
  start = now_ns();
  model->fit(train);
  out.num("fit_s", seconds_since(start));
  spans.add("common.Regressor.fit", start, now_ns());
  out.num("fit_mlogq", metrics::mlogq(model->predict_batch(test.x), test.y));

  const std::string archive = core::model_file_path(dir, model_name);
  start = now_ns();
  core::save_model_file(*model, archive);
  spans.add("core.save_model_file", start, now_ns());
  out.num("model_bytes", static_cast<double>(file_bytes(archive)));
  out.num("samples", static_cast<double>(samples));

  if (trace && !spans.write(trace_dir + "/harness_trace.json")) return 1;
  std::cout << out.render() << "\n";
  return 0;
}

// ----------------------------------------------------------------- fits

// Fits of a serve workload's family, timed apart from its set-ups: `count`
// fits on the training set, after one untimed fit that warms the process as
// fit-kripke's first fit does. A cold fit in a fresh process (the set-up's)
// also times page faults and the OpenMP team's start, which vary more from
// run to run than the fit itself; set-up time keeps them. Every fit must
// predict the held-out set bitwise like the warm-up fit. The host reference
// runs before the first fit and after each. run.py calls this before and
// after the load; fit_s is the median fit over both calls at nominal host
// speed, from the reference's median time over both.
int cmd_fits(const CliArgs& args) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const auto samples = static_cast<std::size_t>(args.get_int("samples", 8192));
  const auto heldout = static_cast<std::size_t>(args.get_int("heldout", 4096));
  const auto count = static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("count", 5)));
  const std::string family = args.get_string("family", "cpr");
  const common::Dataset train = training_set(seed, samples);
  const common::Dataset test = heldout_set(seed, heldout);
  std::vector<double> reference, fit_seconds;
  std::uint64_t attempted = 0, failed = 0;
  HostReference host;
  host.measure();
  while (fit_seconds.size() < count) {
    auto model = common::ModelRegistry::instance().create(family, model_spec(family));
    const std::uint64_t start = now_ns();
    model->fit(train);
    const double fit_time = seconds_since(start);
    host.measure();
    std::vector<double> predictions = model->predict_batch(test.x);
    if (reference.empty()) {
      reference = std::move(predictions);
      continue;
    }
    fit_seconds.push_back(fit_time);
    ++attempted;
    if (!bitwise_equal(predictions, reference)) {
      ++failed;
      std::cerr << "fits: refit predictions differ from the warm-up fit\n";
    }
  }
  JsonObject out;
  out.raw("fit_all_s", number_list(fit_seconds));
  out.raw("host_reference_all_s", number_list(host.all()));
  out.num("host_reference_nominal_s", HostReference::kNominalSeconds);
  out.num("attempted", static_cast<double>(attempted));
  out.num("failed", static_cast<double>(failed));
  std::cout << out.render() << "\n";
  return 0;
}

// --------------------------------------------------------------- probes

int cmd_probes(const CliArgs& args) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const auto samples = static_cast<std::size_t>(args.get_int("samples", 8192));
  const std::string family = args.get_string("family", "cpr");
  const std::string archive = args.get_string("archive", "");
  const std::string trace_dir = args.get_string("trace-dir", ".");
  Spans spans(true);
  const common::Dataset train = training_set(seed, samples);
  const common::RegressorPtr model = core::load_model_file(archive);
  // The probe queries are the configurations the load client will send.
  const std::vector<grid::Config> queries =
      family == "cpr" ? distinct_configs(seed, 4096) : hot_set(seed);
  JsonObject layers;
  run_layer_probes(train, *model, queries, trace_dir + "/probe" + core::kModelFileExtension,
                   seed, spans, trace_dir + "/profile_trace.json", layers);
  if (!spans.write(trace_dir + "/probes_trace.json")) return 1;
  JsonObject out;
  out.raw("layers", layers.render());
  std::cout << out.render() << "\n";
  return 0;
}

// ------------------------------------------------------------ idle-spin

// On a virtual machine, a virtual CPU with nothing to run halts, and the
// host gives it back only when it next gets round to it: on a busy host,
// milliseconds after the thread that woke it (a server or OpenMP thread,
// the client) became runnable. Measured on a 4-vCPU VM in such a period,
// serve-miss windows read a p50 of 2 to 5 ms and no window was on time;
// with these spinners, 0.5 ms, as in the host's calm periods. One thread
// per core spins at SCHED_IDLE, which any runnable thread of the benchmark
// or the server preempts at once inside the guest, so the cores never halt.
int cmd_idle_spin() {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
  cpu_set_t all_cpus;
  CPU_ZERO(&all_cpus);
  ::sched_getaffinity(0, sizeof(all_cpus), &all_cpus);
  std::atomic<bool> stop{false};
  std::vector<std::thread> spinners;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &all_cpus)) continue;
    spinners.emplace_back([&stop, cpu] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      ::pthread_setaffinity_np(::pthread_self(), sizeof(one), &one);
      const sched_param lowest{};
      ::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &lowest);
      while (!stop.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  }
  char ignored;
  while (std::cin.get(ignored)) {
  }
  stop = true;
  for (std::thread& t : spinners) t.join();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::cerr << "usage: perfbench_harness env|fit-kripke|fixture|fits|probes|client|idle-spin"
                 " [--flags]\n";
    return 2;
  }
  const std::string command = argv[1];
  const cpr::CliArgs args(argc - 1, argv + 1);
  try {
    if (command == "env") return cmd_env();
    if (command == "idle-spin") return cmd_idle_spin();
    if (command == "fit-kripke") return cmd_fit_kripke(args);
    if (command == "fixture") return cmd_fixture(args);
    if (command == "fits") return cmd_fits(args);
    if (command == "probes") return cmd_probes(args);
    if (command == "client") return run_load_client(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness " << command << ": " << e.what() << "\n";
    return 1;
  }
  std::cerr << "perfbench_harness: unknown subcommand '" << command << "'\n";
  return 2;
}
