#include "serve/micro_batcher.hpp"

#include <algorithm>
#include <chrono>

#include "linalg/matrix.hpp"
#include "util/kernel_mode.hpp"

namespace cpr::serve {

MicroBatcher::MicroBatcher(Options options) : options_(options) {
  CPR_CHECK_MSG(options_.max_batch > 0, "micro-batcher needs max_batch >= 1");
  batch_.reserve(options_.max_batch);
}

double MicroBatcher::submit(const ModelHandle& model, const grid::Config& config,
                            const obs::TraceHandle& trace) {
  CPR_CHECK_MSG(model && model->model, "submit() needs a loaded model");
  CPR_CHECK_MSG(config.size() == model->model->input_dims(),
                "query has " << config.size() << " values; model '" << model->name
                             << "' expects " << model->model->input_dims());
  Job job;
  job.model = model.get();
  job.config = &config;
  job.trace = trace.get();
  job.submitted_ns = obs::monotonic_ns();
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(&job);
    ++stats_.submitted;
    if (window_open_) changed_.notify_all();
    // Wait until a combiner has run this job, or until no one is combining,
    // in which case this thread takes the role.
    changed_.wait(lock, [&] { return job.done || !combining_; });
    if (!job.done) combine(lock, job);
  }
  if (job.error) std::rethrow_exception(job.error);
  return job.value;
}

MicroBatcher::Stats MicroBatcher::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void MicroBatcher::combine(std::unique_lock<std::mutex>& lock, const Job& own) {
  combining_ = true;
  while (!own.done) {
    // `own` is queued until it runs, so the queue is not empty. Open the
    // batch with the oldest job: every caller is served in arrival order.
    batch_.clear();
    batch_.push_back(queue_.front());
    queue_.pop_front();
    const LoadedModel* key = batch_.front()->model;
    sweep_locked(batch_, key);
    if (options_.max_wait_us > 0 && batch_.size() < options_.max_batch) {
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::microseconds(options_.max_wait_us);
      window_open_ = true;
      while (batch_.size() < options_.max_batch &&
             changed_.wait_until(lock, deadline) == std::cv_status::no_timeout) {
        sweep_locked(batch_, key);
      }
      sweep_locked(batch_, key);  // pick up arrivals that raced the timeout
      window_open_ = false;
    }
    ++stats_.batches;
    stats_.max_batch_seen =
        std::max(stats_.max_batch_seen, static_cast<std::uint64_t>(batch_.size()));

    lock.unlock();
    run_batch(batch_);
    lock.lock();
    for (Job* job : batch_) job->done = true;
    if (own.done) combining_ = false;  // hand the role to a waiting caller
    changed_.notify_all();
  }
}

void MicroBatcher::sweep_locked(std::vector<Job*>& batch, const LoadedModel* key) {
  for (auto it = queue_.begin();
       it != queue_.end() && batch.size() < options_.max_batch;) {
    if ((*it)->model == key) {
      batch.push_back(*it);
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
}

void MicroBatcher::run_batch(const std::vector<Job*>& batch) const {
  // Batch-wait closes when the batch starts executing: every member waited
  // from its own submit until now. Nothing may escape: the combiner must
  // mark every job done and release its role.
  const std::uint64_t picked_up_ns = obs::monotonic_ns();
  try {
    const std::string batch_size = std::to_string(batch.size());
    for (const Job* job : batch) {
      if (options_.batch_wait_histogram) {
        options_.batch_wait_histogram->record(
            static_cast<double>(picked_up_ns - job->submitted_ns) * 1e-9);
      }
      if (job->trace) {
        obs::TraceSpan span;
        span.name = "batch_wait";
        span.start_ns = job->submitted_ns;
        span.end_ns = picked_up_ns;
        job->trace->add_span(std::move(span));
      }
    }

    const common::Regressor& model = *batch.front()->model->model;
    linalg::Matrix queries(batch.size(), model.input_dims());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      std::copy(batch[i]->config->begin(), batch[i]->config->end(), queries.row_ptr(i));
    }
    const std::vector<double> predictions = model.predict_batch(queries);
    const std::uint64_t done_ns = obs::monotonic_ns();
    if (options_.predict_histogram) {
      options_.predict_histogram->record(
          static_cast<double>(done_ns - picked_up_ns) * 1e-9);
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch[i]->trace) {
        obs::TraceSpan span;
        span.name = "predict";
        span.start_ns = picked_up_ns;
        span.end_ns = done_ns;
        span.args.emplace_back("batch", batch_size);
        span.args.emplace_back("kernel", kernel_mode_name(kernel_mode()));
        span.args.emplace_back("model", batch[i]->model->name);
        batch[i]->trace->add_span(std::move(span));
      }
      batch[i]->value = predictions[i];
    }
  } catch (...) {
    for (Job* job : batch) job->error = std::current_exception();
  }
}

}  // namespace cpr::serve
