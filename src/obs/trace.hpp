#pragma once
// Per-request span tracing for the serving pipeline.
//
// A RequestTrace is allocated at frame parse (sampled 1-in-N by the
// TraceCollector) and rides the request through every stage as a
// shared_ptr handle: the IO loop stamps admission, a dispatch worker runs
// handle_line, the micro-batcher's combiner thread stamps batch wait and
// predict, and the IO loop stamps the reply flush. A null handle means "not
// sampled" and every operation on it is a no-op, so the unsampled fast path
// costs one atomic fetch_add at parse and pointer checks everywhere else.
//
// Completed traces are exported as Chrome trace-event JSON (`"ph":"X"`
// complete events, microsecond timestamps) loadable in Perfetto or
// chrome://tracing; each request renders as its own track (tid = request
// id), so a pipelined connection shows its requests stacked in parallel.
//
// Span taxonomy (docs/OBSERVABILITY.md has the full contract):
//   request        — frame parse to reply rendered (the root span)
//   admission_wait — dispatch-queue wait (TCP front end only)
//   handle         — Server::handle_line; args: verb, cache=hit|miss
//   batch_wait     — batcher submit to batch pickup
//   predict        — predict_batch; args: batch, kernel, model
//   flush          — dispatch complete to reply bytes rendered

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace cpr::obs {

struct TraceSpan {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::vector<std::pair<std::string, std::string>> args;
};

/// One sampled request's span log. Spans are appended from whichever thread
/// currently owns the request, so the vector is mutex-guarded; contention is
/// nil (a handful of appends per request, each from a different stage).
class RequestTrace {
 public:
  RequestTrace(std::uint64_t id, std::uint64_t start_ns) : id_(id), start_ns_(start_ns) {}

  std::uint64_t id() const { return id_; }
  std::uint64_t start_ns() const { return start_ns_; }

  void add_span(TraceSpan span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }

  std::vector<TraceSpan> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  std::uint64_t id_;
  std::uint64_t start_ns_;
  mutable std::mutex mu_;
  std::vector<TraceSpan> spans_;
};

/// Null handle = unsampled request; every consumer checks before stamping.
using TraceHandle = std::shared_ptr<RequestTrace>;

/// RAII span on a (possibly null) trace: stamps start on construction, end
/// plus any accumulated args on destruction. No-op for null handles.
class SpanTimer {
 public:
  SpanTimer(TraceHandle trace, std::string name) : trace_(std::move(trace)) {
    if (trace_) {
      span_.name = std::move(name);
      span_.start_ns = monotonic_ns();
    }
  }
  ~SpanTimer() {
    if (trace_) {
      span_.end_ns = monotonic_ns();
      trace_->add_span(std::move(span_));
    }
  }
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

  void arg(std::string key, std::string value) {
    if (trace_) span_.args.emplace_back(std::move(key), std::move(value));
  }

 private:
  TraceHandle trace_;
  TraceSpan span_;
};

/// Owns the sampling decision and the completed-trace buffer for one
/// Server. sample_every == 0 disables tracing (the default); N samples
/// every Nth request. The buffer is bounded: beyond kMaxTraces completed
/// traces are counted in dropped() instead of retained, so a long soak with
/// --trace-sample=1 cannot grow without bound.
class TraceCollector {
 public:
  static constexpr std::size_t kMaxTraces = 1 << 16;

  void set_sample_every(std::uint64_t n) {
    sample_every_.store(n, std::memory_order_relaxed);
  }
  std::uint64_t sample_every() const {
    return sample_every_.load(std::memory_order_relaxed);
  }

  /// Null unless this request is sampled; also stamps the trace start.
  TraceHandle maybe_start();

  /// Closes the root `request` span and retains the trace (or counts a
  /// drop when full). No-op for null handles.
  void finish(const TraceHandle& trace);

  std::size_t collected() const;
  std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// All retained traces as Chrome trace-event JSON.
  std::string render_chrome_json() const;

 private:
  std::atomic<std::uint64_t> sample_every_{0};
  std::atomic<std::uint64_t> sequence_{0};
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex mu_;
  std::vector<TraceHandle> done_;
};

/// One rendered trace-event: the shared currency between the request
/// tracer and the training profiler, so both export the same JSON shape.
struct ChromeEvent {
  std::string name;
  std::uint64_t tid = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::vector<std::pair<std::string, std::string>> args;
};

/// `{"traceEvents":[...]}` with `"ph":"X"` complete events, ts/dur in
/// microseconds, pid 1. Events are sorted by (tid, ts) so timestamps are
/// monotone per track and the output is deterministic in the event set.
std::string render_chrome_events(std::vector<ChromeEvent> events);

/// JSON string escaping (quotes, backslashes, control characters). Total:
/// any byte sequence in, valid JSON string contents out.
std::string json_escape(std::string_view text);

/// Structural validator for the Chrome trace JSON (the `cpr_obscheck` gate
/// and well-formedness tests): the document must parse as JSON, carry a
/// `traceEvents` array, and every event needs a string `name`/`ph` plus
/// non-negative numeric `ts` and `dur` (every span closed), with `ts`
/// monotone per `tid`. On failure describes the first violation in `*error`.
bool validate_chrome_trace(const std::string& json, std::string* error);

}  // namespace cpr::obs
