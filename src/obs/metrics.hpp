#pragma once
// Lock-free metrics for the serving and training layers.
//
// Three primitives, all safe to hammer from any number of threads with no
// lock on the hot path:
//
//   Counter   — per-thread-sharded relaxed atomics; value() sums the shards.
//   Gauge     — a single atomic level (connections open, entries resident).
//   Histogram — fixed-boundary log-scale buckets with EXACT counts. Every
//               histogram shares one boundary table (1 µs to ~113 s, four
//               buckets per octave), so any two snapshots merge by
//               element-wise addition — associative and deterministic no
//               matter how many shards or processes contributed. Percentiles
//               are computed by nearest rank over the exact bucket counts
//               and return the bucket's upper bound: a pure function of the
//               counts, bitwise-reproducible across runs of the same
//               recorded workload (unlike the sampling reservoir this
//               replaces, whose tails were sample noise).
//
// The Registry names metrics and renders the Prometheus text exposition
// (`# HELP`/`# TYPE`, cumulative `_bucket{le="..."}` lines, `_sum`,
// `_count`) served by the METRICS protocol verb and dumped by
// `cpr_serve --metrics-out`. Registries are instances, not process globals:
// each Server owns one, so tests and multi-server processes never share
// counters.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cpr::obs {

/// Shard count for the per-thread-sharded primitives: enough slots that a
/// dispatch pool plus the refit trainer rarely collide on a cacheline.
inline constexpr std::size_t kMetricShards = 16;

/// This thread's shard slot (assigned once per thread, round-robin).
std::size_t thread_shard();

/// Monotonic nanoseconds (steady_clock): the one clock every observability
/// component stamps with, so spans and histograms are mutually comparable.
inline std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Monotonically non-decreasing event counter.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    slots_[thread_shard()].value.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const auto& slot : slots_) total += slot.value.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Slot, kMetricShards> slots_;
};

/// A level that can go up and down (open connections, resident entries).
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Element-wise-addable histogram state: bucket counts over the shared
/// boundary table plus a fixed-point (integer nanosecond) sum, so merged
/// totals are exact and merge order cannot change any digit.
struct HistogramSnapshot {
  std::vector<std::uint64_t> buckets;  ///< finite buckets + one overflow slot
  std::uint64_t sum_ns = 0;            ///< exact total in nanoseconds

  std::uint64_t count() const;
  double sum_seconds() const { return static_cast<double>(sum_ns) * 1e-9; }

  /// Element-wise addition; associative and commutative, so any merge tree
  /// over the same shards yields bitwise-identical state.
  void merge(const HistogramSnapshot& other);

  /// Nearest-rank percentile (q in [0,1]) over the exact counts; returns
  /// the containing bucket's upper boundary (the last finite boundary for
  /// overflow samples), or 0 when empty. Deterministic in the counts alone.
  double percentile(double q) const;
};

/// Fixed-boundary log-scale latency histogram (see file comment).
class Histogram {
 public:
  /// Shared upper boundaries: bounds[i] = 1e-6 * 2^(i/4), covering 1 µs to
  /// ~113 s in 108 buckets; samples above the last bound land in one
  /// overflow bucket, samples below 1 µs in the first bucket.
  static const std::vector<double>& boundaries();

  Histogram();

  /// Records one observation; negative/NaN values clamp into the first
  /// bucket. One binary search plus two relaxed fetch_adds — no locks.
  void record(double seconds);

  HistogramSnapshot snapshot() const;

  /// Convenience: snapshot().percentile(q).
  double percentile(double q) const { return snapshot().percentile(q); }

 private:
  struct alignas(64) Shard {
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets;
    std::atomic<std::uint64_t> sum_ns{0};
  };
  std::array<Shard, kMetricShards> shards_;
};

/// Named-metric registry with Prometheus text exposition. Registration is
/// mutex-guarded (cold path); the returned references stay valid for the
/// registry's lifetime, and recording through them is lock-free.
class Registry {
 public:
  enum class CallbackKind { Counter, Gauge };

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Each returns the existing metric when `name` is already registered
  /// (and throws CheckError if it was registered as a different kind).
  Counter& counter(const std::string& name, const std::string& help);
  Gauge& gauge(const std::string& name, const std::string& help);
  Histogram& histogram(const std::string& name, const std::string& help);

  /// Registers a render-time value pulled from elsewhere (cache counters,
  /// batcher stats). `fn` runs during render() and must be thread-safe.
  void callback(const std::string& name, const std::string& help, CallbackKind kind,
                std::function<double()> fn);

  /// The full Prometheus text exposition, metrics sorted by name.
  std::string render() const;

 private:
  struct Entry {
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<double()> fn;
    CallbackKind fn_kind = CallbackKind::Gauge;
  };
  Entry& entry(const std::string& name, const std::string& help);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

/// Structural validator for the Prometheus text exposition (the
/// `tools/cpr_obscheck` gate and the golden-format tests): every sample
/// needs a preceding `# TYPE`, histogram buckets must be cumulative and
/// non-decreasing, end in `le="+Inf"`, and agree with `_count`; `_sum`
/// must be present. On failure returns false and describes the first
/// violation in `*error`.
bool validate_prometheus_text(const std::string& text, std::string* error);

}  // namespace cpr::obs
