#pragma once
// The common model interface every family implements (CPR and the nine
// alternatives of Section 6.0.4), so benches can sweep them uniformly and
// the tools can persist/serve any family through one polymorphic archive.

#include <memory>
#include <string>
#include <vector>

#include "common/dataset.hpp"
#include "util/serialize.hpp"

namespace cpr::common {

/// predict_batch opens an OpenMP team only for batches of at least this
/// many rows; shorter ones run serially on the calling thread. In the
/// kernel_suite predict_batch_rows sweep a warm 4-thread team first beats
/// one thread somewhere between 32 and 128 rows, and a server's idle team
/// must first be woken, so the gate sits at the top of that range: a full
/// default micro-batch (64) never opens a team. Rows are independent, so
/// both paths return the same bits.
inline constexpr std::size_t kMinParallelRows = 128;

class Regressor {
 public:
  virtual ~Regressor() = default;

  /// Short identifier used in bench output (e.g. "CPR", "SGR", "NN").
  virtual std::string name() const = 0;

  /// Stable archive identifier (e.g. "cpr", "rf"). Written into model files
  /// and used by ModelRegistry to dispatch load; must never change once a
  /// family has shipped archives.
  virtual std::string type_tag() const = 0;

  /// Number of configuration dimensions the model predicts over (0 before
  /// fit for families that only learn it from the training data).
  virtual std::size_t input_dims() const = 0;

  /// Fits the model to the training set. May be called more than once
  /// (refits from scratch).
  virtual void fit(const Dataset& train) = 0;

  /// Predicted execution time (seconds) for one configuration.
  virtual double predict(const grid::Config& x) const = 0;

  /// Bytes needed to persist the fitted parameters — the paper's
  /// "model size" axis (Figure 7).
  virtual std::size_t model_size_bytes() const = 0;

  /// Writes the fitted state to `sink`; the matching loader is registered
  /// in the ModelRegistry under type_tag(). Families that cannot be
  /// persisted keep the default, which throws CheckError.
  virtual void save(SerialSink& sink) const;

  /// Online-learning hooks behind the serving path's OBSERVE/REFIT verbs.
  /// A family that can ingest single observations and recompute its fitted
  /// state warm (OnlineCprModel) overrides all three; anything built on the
  /// defaults is refused by the server with an ERR instead of a crash.
  virtual bool supports_observe() const { return false; }

  /// Streams one observation (configuration, measured seconds) into the
  /// model's running statistics. Default throws CheckError.
  virtual void observe(const grid::Config& x, double seconds);

  /// Recomputes the fitted state from everything observed so far — a warm
  /// restart, not a cold refit. Default throws CheckError.
  virtual void refresh();

  /// Predicts every row of `x` (n-by-d). The default parallelizes the
  /// scalar predict() over rows (from kMinParallelRows rows on); families
  /// with an allocation-free batched path (CPR) override it. Row i always
  /// equals predict(row i) bitwise.
  virtual std::vector<double> predict_batch(const linalg::Matrix& x) const;

  /// Predicts every row of `x` (alias retained for existing callers).
  std::vector<double> predict_all(const linalg::Matrix& x) const {
    return predict_batch(x);
  }

  /// Encoding of the archive this instance was loaded from (F64 for freshly
  /// fitted models and version-1 archives). The serving path refuses
  /// OBSERVE/REFIT on anything but F64: replaying observations on top of
  /// quantized (lossy) parameters would silently diverge from offline
  /// training.
  QuantMode archive_quant_mode() const { return archive_quant_mode_; }
  void set_archive_quant_mode(QuantMode mode) { archive_quant_mode_ = mode; }

 private:
  QuantMode archive_quant_mode_ = QuantMode::F64;
};

using RegressorPtr = std::unique_ptr<Regressor>;

}  // namespace cpr::common
