#include "serve/server.hpp"

#include <sstream>

namespace cpr::serve {

namespace {

const char* verb_name(RequestKind kind) {
  switch (kind) {
    case RequestKind::Predict: return "PREDICT";
    case RequestKind::Observe: return "OBSERVE";
    case RequestKind::Refit: return "REFIT";
    case RequestKind::Load: return "LOAD";
    case RequestKind::Unload: return "UNLOAD";
    case RequestKind::Stats: return "STATS";
    case RequestKind::Metrics: return "METRICS";
    case RequestKind::Quit: return "QUIT";
  }
  return "?";
}

}  // namespace

MicroBatcher::Options Server::batcher_options() {
  MicroBatcher::Options batcher = options_.batcher;
  batcher.batch_wait_histogram = &stats_.batch_wait();
  batcher.predict_histogram = &stats_.predict_time();
  return batcher;
}

RefitTrainer::Hooks Server::trainer_hooks() {
  RefitTrainer::Hooks hooks;
  hooks.refits = &stats_.refits();
  hooks.failures = &stats_.refit_failures();
  hooks.duration = &stats_.refit_duration();
  return hooks;
}

Server::Server(ServerOptions options)
    : options_(options),
      store_(options.model_dir, options.reload_check, options.observe_buffer),
      cache_(options.cache_capacity, options.cache_shards),
      stats_(registry_),
      batcher_(batcher_options()),
      drift_(options.drift_window),
      trainer_(store_, trainer_hooks()) {
  traces_.set_sample_every(options_.trace_sample);
  // Component counters owned elsewhere surface in METRICS as render-time
  // callbacks; all the underlying accessors are thread-safe.
  using Kind = obs::Registry::CallbackKind;
  registry_.callback("cpr_cache_hits_total", "prediction cache hits", Kind::Counter,
                     [this] { return static_cast<double>(cache_.counters().hits); });
  registry_.callback("cpr_cache_misses_total", "prediction cache misses",
                     Kind::Counter,
                     [this] { return static_cast<double>(cache_.counters().misses); });
  registry_.callback(
      "cpr_cache_evictions_total", "prediction cache LRU evictions", Kind::Counter,
      [this] { return static_cast<double>(cache_.counters().evictions); });
  registry_.callback("cpr_cache_entries", "prediction cache resident entries",
                     Kind::Gauge,
                     [this] { return static_cast<double>(cache_.counters().entries); });
  registry_.callback(
      "cpr_batch_requests_total", "requests accepted by the micro-batcher",
      Kind::Counter,
      [this] { return static_cast<double>(batcher_.stats().submitted); });
  registry_.callback("cpr_batches_total", "predict_batch calls issued",
                     Kind::Counter,
                     [this] { return static_cast<double>(batcher_.stats().batches); });
  registry_.callback(
      "cpr_batch_max_size", "largest batch executed so far", Kind::Gauge,
      [this] { return static_cast<double>(batcher_.stats().max_batch_seen); });
  registry_.callback("cpr_models_loaded", "models currently resident", Kind::Gauge,
                     [this] { return static_cast<double>(store_.loaded_names().size()); });
  registry_.callback(
      "cpr_observations_buffered", "observations pending the next refit",
      Kind::Gauge,
      [this] { return static_cast<double>(store_.buffered_observations()); });
  registry_.callback(
      "cpr_observations_dropped_total",
      "observations dropped because a model's buffer was full", Kind::Counter,
      [this] { return static_cast<double>(store_.dropped_observations()); });
  registry_.callback(
      "cpr_drift_abs_log_error",
      "rolling mean |log(predicted/observed)| over recent OBSERVEs", Kind::Gauge,
      [this] { return drift_.snapshot().abs_log_error; });
  registry_.callback(
      "cpr_drift_signed_log_error",
      "rolling mean log(predicted/observed) over recent OBSERVEs (bias)",
      Kind::Gauge, [this] { return drift_.snapshot().signed_log_error; });
}

std::string Server::handle_observe(const Request& request) {
  const ModelStore::ObserveResult result =
      store_.observe(request.model, request.values, request.seconds);
  // Drift telemetry: what the resident generation would have predicted for
  // the configuration whose true cost just arrived.
  drift_.record(result.handle->model->predict(request.values), request.seconds);
  stats_.record_observe();
  if (options_.refit_after > 0 && result.buffered >= options_.refit_after) {
    // Fire-and-forget: the trainer coalesces bursts into one queued job,
    // and that refit drains the whole buffer when it runs.
    trainer_.request(request.model);
  }
  std::ostringstream os;
  os << "OK observed " << request.model << " buffered=" << result.buffered;
  return os.str();
}

std::string Server::handle_refit(const Request& request) {
  // The refit runs on the trainer thread; only this request waits for it.
  // Concurrent PREDICTs keep serving the old generation until the publish.
  const RefitTrainer::Outcome outcome = trainer_.request(request.model).get();
  CPR_CHECK_MSG(outcome.ok, "refit failed — " << outcome.error);
  std::ostringstream os;
  os << "OK refit " << request.model << " generation=" << outcome.generation
     << " observations=" << outcome.observations;
  return os.str();
}

std::string Server::handle_predict(const Request& request,
                                   const obs::TraceHandle& trace,
                                   obs::SpanTimer& span) {
  const auto start = std::chrono::steady_clock::now();
  const ModelHandle model = store_.acquire(request.model);
  CPR_CHECK_MSG(request.values.size() == model->model->input_dims(),
                "model '" << request.model << "' expects "
                          << model->model->input_dims() << " values, got "
                          << request.values.size());

  const std::string key =
      cache_.enabled()
          ? PredictionCache::make_key(model->name, model->generation, request.values)
          : std::string();
  double prediction = 0.0;
  if (const auto cached = cache_.get(key)) {
    prediction = *cached;
    span.arg("cache", "hit");
  } else {
    span.arg("cache", "miss");
    prediction = batcher_.submit(model, request.values, trace);
    cache_.put(key, prediction);
  }
  stats_.record_predict(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count());
  return format_prediction(prediction);
}

Server::Reply Server::handle_line(const std::string& line) {
  const obs::TraceHandle trace = traces_.maybe_start();
  Reply reply = handle_line(line, trace);
  traces_.finish(trace);
  return reply;
}

Server::Reply Server::handle_line(const std::string& line,
                                  const obs::TraceHandle& trace) {
  Reply reply;
  try {
    const Request request = parse_request(line);
    obs::SpanTimer span(trace, "handle");
    span.arg("verb", verb_name(request.kind));
    switch (request.kind) {
      case RequestKind::Predict:
        reply.text = handle_predict(request, trace, span);
        break;
      case RequestKind::Observe:
        reply.text = handle_observe(request);
        break;
      case RequestKind::Refit:
        reply.text = handle_refit(request);
        break;
      case RequestKind::Load: {
        const ModelHandle model = store_.load(request.model);
        std::ostringstream os;
        os << "OK loaded " << model->name << " type=" << model->model->type_tag()
           << " dims=" << model->model->input_dims()
           << " bytes=" << model->model->model_size_bytes();
        reply.text = os.str();
        break;
      }
      case RequestKind::Unload:
        store_.unload(request.model);
        reply.text = "OK unloaded " + request.model;
        break;
      case RequestKind::Stats: {
        const Table table = render_stats_table(
            stats_.snapshot(), cache_.counters(), batcher_.stats(),
            store_.loaded_names(), drift_.snapshot(), store_.buffered_observations());
        std::ostringstream os;
        table.print(os);
        os << "OK";
        reply.text = os.str();
        break;
      }
      case RequestKind::Metrics:
        reply.text = metrics_text() + "OK";
        break;
      case RequestKind::Quit:
        reply.text = "OK bye";
        reply.quit = true;
        break;
    }
  } catch (const std::exception& e) {
    stats_.record_error();
    reply.text = format_error(e.what());
  }
  return reply;
}

}  // namespace cpr::serve
