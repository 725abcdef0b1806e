#pragma once
// Serving telemetry: request counts, QPS, latency quantiles, and the TCP
// front end's connection/shedding gauges — all backed by the obs registry.
//
// Latencies land in obs::Histogram's exact log-scale buckets instead of the
// sampling reservoir this replaced: p50/p99/p99.9 are now a deterministic
// function of every recorded request (bitwise-reproducible for the same
// workload), still O(1) memory over unbounded streams, and the very same
// state renders through both the STATS table and the Prometheus METRICS
// exposition. The stage histograms (admission wait, batch wait, predict,
// reply flush) are owned here too, so transports and the batcher attribute
// each request's latency to pipeline stages without new plumbing.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/drift_tracker.hpp"
#include "serve/micro_batcher.hpp"
#include "serve/prediction_cache.hpp"
#include "util/table.hpp"

namespace cpr::serve {

class ServerStats {
 public:
  /// Registers the request counters and latency/stage histograms on
  /// `registry`, which must outlive this object.
  explicit ServerStats(obs::Registry& registry);

  /// Records one answered PREDICT (latency includes batching wait); hit/miss
  /// accounting lives in the PredictionCache counters.
  void record_predict(double latency_seconds) {
    predicts_->inc();
    latency_->record(latency_seconds);
  }

  /// Records a request answered with ERR.
  void record_error() { errors_->inc(); }

  /// Records one accepted OBSERVE (the observation was buffered).
  void record_observe() { observes_->inc(); }

  /// Records a request shed with a BUSY reply (admission control).
  void record_shed() { sheds_->inc(); }

  /// Transport connection lifecycle (the TCP/Unix socket front end).
  void record_connection_open() { connections_->add(1); }
  void record_connection_close() { connections_->add(-1); }

  /// Stage histograms recorded by the transports and the micro-batcher;
  /// exposed via METRICS as cpr_*_seconds for stage attribution.
  obs::Histogram& admission_wait() { return *admission_wait_; }
  obs::Histogram& batch_wait() { return *batch_wait_; }
  obs::Histogram& predict_time() { return *predict_time_; }
  obs::Histogram& flush_time() { return *flush_time_; }
  const obs::Histogram& request_latency() const { return *latency_; }

  /// Background-trainer telemetry, wired into RefitTrainer::Hooks.
  obs::Counter& refits() { return *refits_; }
  obs::Counter& refit_failures() { return *refit_failures_; }
  obs::Histogram& refit_duration() { return *refit_duration_; }

  struct Snapshot {
    std::uint64_t predicts = 0;
    std::uint64_t errors = 0;
    std::uint64_t sheds = 0;        ///< requests answered BUSY, never executed
    std::uint64_t observes = 0;     ///< OBSERVE requests accepted
    std::uint64_t refits = 0;       ///< refits published
    std::uint64_t refit_failures = 0;
    std::int64_t connections = 0;   ///< transport connections open right now
    double elapsed_seconds = 0.0;  ///< since the stats object was created
    double qps = 0.0;              ///< predicts / elapsed
    double p50_seconds = 0.0;
    double p99_seconds = 0.0;
    double p999_seconds = 0.0;
  };
  Snapshot snapshot() const;

 private:
  obs::Counter* predicts_;
  obs::Counter* errors_;
  obs::Counter* sheds_;
  obs::Counter* observes_;
  obs::Counter* refits_;
  obs::Counter* refit_failures_;
  obs::Gauge* connections_;
  obs::Histogram* latency_;
  obs::Histogram* admission_wait_;
  obs::Histogram* batch_wait_;
  obs::Histogram* predict_time_;
  obs::Histogram* flush_time_;
  obs::Histogram* refit_duration_;
  std::chrono::steady_clock::time_point start_;
};

/// Renders one STATS table from the server's component counters. `drift` is
/// the rolling OBSERVE-error window and `buffered_observations` the pending
/// (not yet refit) observation count across models.
Table render_stats_table(const ServerStats::Snapshot& requests,
                         const PredictionCache::Counters& cache,
                         const MicroBatcher::Stats& batcher,
                         const std::vector<std::string>& loaded_models,
                         const DriftTracker::Snapshot& drift = {},
                         std::size_t buffered_observations = 0);

}  // namespace cpr::serve
