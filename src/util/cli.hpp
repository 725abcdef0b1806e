#pragma once
// Minimal command-line flag parsing for bench/example binaries.
//
// Supports `--key=value`, `--key value`, and boolean `--flag` forms.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace cpr {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  /// True if the flag appeared (with or without a value).
  bool has(const std::string& key) const;

  std::string get_string(const std::string& key, const std::string& fallback) const;
  /// Numeric flags: a missing or empty value yields `fallback`; a value that
  /// is not entirely one number (trailing characters, no digits, `1e3` for
  /// an integer) or is out of range throws CheckError naming the flag.
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Positional (non-flag) arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

/// Backend of the tools' --threads=<n> flag: caps the OpenMP team size for
/// every subsequent parallel region (predict_batch, completion solves).
/// n <= 0 leaves the environment default (OMP_NUM_THREADS) in place; a
/// no-op when built without OpenMP.
void apply_thread_cap(std::int64_t n);

}  // namespace cpr
