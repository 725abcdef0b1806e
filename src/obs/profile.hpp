#pragma once
// Scoped phase timers for the training/tuning path.
//
// `CPR_PROFILE_SCOPE("fused_gram_rhs")` at the top of a kernel registers
// the phase once (a function-local static, so OpenMP teams race-free share
// one handle) and times the enclosing scope whenever profiling is enabled.
// Disabled — the default, and the only state the serving benches ever see —
// the macro costs one relaxed atomic load, cheap enough to live inside
// the per-tile fused Gram+RHS kernel.
//
// Enabled via `cpr_train/cpr_tune --profile`, every scope accumulates into
// per-thread-sharded {calls, total_ns} cells rendered as a per-phase time
// table; with event capture additionally on (`--trace-out`), each scope
// also appends a bounded per-thread-tracked event exported in the same
// Chrome trace JSON as the serving tracer.
//
// The Profiler is a process-wide singleton on purpose: phase handles are
// burned into function-local statics, and the kernels it instruments have
// no context argument to thread a registry through. Tests that enable it
// must reset() + disable when done.

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/table.hpp"

namespace cpr::obs {

class Profiler {
 public:
  static constexpr std::size_t kMaxPhases = 64;
  static constexpr std::size_t kMaxEvents = 1 << 17;

  static Profiler& instance();

  /// `timing` turns the scopes on; `capture` additionally records one event
  /// per scope for the trace export. Capture without timing is meaningless
  /// and treated as timing too.
  void set_enabled(bool timing, bool capture = false);
  bool enabled() const { return flags_.load(std::memory_order_relaxed) != 0; }
  bool capturing() const {
    return (flags_.load(std::memory_order_relaxed) & kCaptureBit) != 0;
  }

  /// Idempotent by name; at most kMaxPhases distinct phases.
  std::size_t register_phase(const std::string& name);

  /// Accumulates one timed scope (called by ScopedPhase, not directly).
  void record(std::size_t phase, std::uint64_t start_ns, std::uint64_t end_ns);

  struct PhaseStat {
    std::string name;
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
  };
  /// Non-zero phases in registration order.
  std::vector<PhaseStat> stats() const;

  /// phase | calls | total_ms | mean_us table for `--profile` output.
  Table render_table() const;

  /// Captured events (tid = profiling thread) as Chrome trace JSON.
  std::string render_chrome_json() const;

  std::uint64_t events_dropped() const {
    return events_dropped_.load(std::memory_order_relaxed);
  }

  /// Zeroes accumulators and captured events; registered phases survive
  /// (their handles live in function-local statics).
  void reset();

 private:
  static constexpr int kTimingBit = 1;
  static constexpr int kCaptureBit = 2;

  Profiler() = default;

  struct alignas(64) Cell {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> total_ns{0};
  };
  struct Phase {
    std::string name;
    std::array<Cell, kMetricShards> cells;
  };

  struct Event {
    std::uint32_t phase = 0;
    std::uint32_t tid = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };

  std::atomic<int> flags_{0};
  mutable std::mutex mu_;  // phase registration + event buffer
  // Fixed-capacity phase storage: record() indexes it without a lock, so
  // the array must never reallocate.
  std::array<Phase, kMaxPhases> phases_;
  std::atomic<std::size_t> phase_count_{0};
  std::vector<Event> events_;
  std::atomic<std::uint64_t> events_dropped_{0};
};

/// RAII timer for one profiled scope; see CPR_PROFILE_SCOPE.
class ScopedPhase {
 public:
  explicit ScopedPhase(std::size_t phase) {
    if (Profiler::instance().enabled()) {
      phase_ = phase;
      start_ns_ = monotonic_ns();
      active_ = true;
    }
  }
  ~ScopedPhase() {
    if (active_) Profiler::instance().record(phase_, start_ns_, monotonic_ns());
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  std::size_t phase_ = 0;
  std::uint64_t start_ns_ = 0;
  bool active_ = false;
};

}  // namespace cpr::obs

#define CPR_PROFILE_CONCAT_INNER(a, b) a##b
#define CPR_PROFILE_CONCAT(a, b) CPR_PROFILE_CONCAT_INNER(a, b)

/// Times the enclosing scope under `name` when profiling is enabled; one
/// relaxed atomic load when it is not.
#define CPR_PROFILE_SCOPE(name)                                                 \
  static const std::size_t CPR_PROFILE_CONCAT(cpr_profile_phase_, __LINE__) =   \
      ::cpr::obs::Profiler::instance().register_phase(name);                    \
  ::cpr::obs::ScopedPhase CPR_PROFILE_CONCAT(cpr_profile_scope_, __LINE__)(     \
      CPR_PROFILE_CONCAT(cpr_profile_phase_, __LINE__))
