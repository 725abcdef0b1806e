#pragma once
// Request coalescing for the serving layer.
//
// Concurrent single-point PREDICT requests are expensive to dispatch one by
// one: every call pays virtual dispatch, OpenMP region entry, and (for
// non-CPR families) per-row allocation. The MicroBatcher coalesces them into
// per-model predict_batch() calls without a thread of its own: it is
// caller-runs ("flat combining"). A submitting thread enqueues its job and,
// if no other caller is combining, becomes the combiner: it opens a batch
// with the oldest queued job, sweeps same-model jobs in behind it up to
// `max_batch`, runs predict_batch itself, and repeats until its own job is
// done, then hands the role to a waiting caller. A lone request therefore
// runs on its own thread with no hand-off, and batches grow only while a
// previous batch runs (continuous batching). A `max_wait_us` > 0 adds a
// timed window in which the combiner waits for same-model stragglers before
// it flushes an under-full batch. Because every family guarantees
// predict_batch row i == predict(row i) bitwise, batching is invisible to
// clients: results are identical to serial evaluation no matter how requests
// interleave.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/model_store.hpp"

namespace cpr::serve {

class MicroBatcher {
 public:
  struct Options {
    std::size_t max_batch = 64;     ///< largest batch one predict_batch runs
    std::uint64_t max_wait_us = 0;  ///< >0: wait this long for stragglers
                                    ///< before flushing an under-full batch

    /// Optional stage histograms (owned by ServerStats): per-request wait
    /// from submit to batch start, and per-batch predict_batch time. Null
    /// leaves them unrecorded.
    obs::Histogram* batch_wait_histogram = nullptr;
    obs::Histogram* predict_histogram = nullptr;
  };

  struct Stats {
    std::uint64_t submitted = 0;  ///< requests accepted
    std::uint64_t batches = 0;    ///< predict_batch calls issued
    std::uint64_t max_batch_seen = 0;

    double mean_batch() const {
      return batches == 0 ? 0.0
                          : static_cast<double>(submitted) / static_cast<double>(batches);
    }
  };

  explicit MicroBatcher(Options options);

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  /// Predicts one configuration, possibly batched with concurrent callers'
  /// requests, and returns exactly model->predict(config) (bitwise) or
  /// rethrows the model's error. `config` must match the model's
  /// input_dims(). The call may run other callers' batches on this thread
  /// before it returns. A sampled request passes its trace handle so the
  /// batch stamps batch_wait and predict spans; null means unsampled.
  double submit(const ModelHandle& model, const grid::Config& config,
                const obs::TraceHandle& trace = nullptr);

  Stats stats() const;

  const Options& options() const { return options_; }

 private:
  /// One pending request; it lives on its caller's stack for the call.
  struct Job {
    const LoadedModel* model = nullptr;
    const grid::Config* config = nullptr;
    obs::RequestTrace* trace = nullptr;  ///< null unless trace-sampled
    std::uint64_t submitted_ns = 0;
    double value = 0.0;
    std::exception_ptr error;
    bool done = false;  ///< guarded by mu_; value/error are final once set
  };

  /// Runs batches, oldest job first, until `own` is done; `lock` holds mu_
  /// on entry and exit and is released while predict_batch runs.
  void combine(std::unique_lock<std::mutex>& lock, const Job& own);
  /// Moves queued same-model jobs into `batch` up to max_batch; `mu_` held.
  void sweep_locked(std::vector<Job*>& batch, const LoadedModel* key);
  void run_batch(const std::vector<Job*>& batch) const;

  Options options_;
  mutable std::mutex mu_;
  std::condition_variable changed_;  ///< a job finished, the combiner role
                                     ///< freed, or a straggler arrived
  std::deque<Job*> queue_;
  std::vector<Job*> batch_;  ///< the combiner's batch, reused across calls
  bool combining_ = false;
  bool window_open_ = false;  ///< the combiner waits for stragglers
  Stats stats_;
};

}  // namespace cpr::serve
