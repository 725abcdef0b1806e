#include "util/cli.hpp"

#include <cerrno>
#include <cstdlib>

#ifdef CPR_HAVE_OPENMP
#include <omp.h>
#endif

#include "util/check.hpp"

namespace cpr {

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "";  // bare boolean flag
    }
  }
}

bool CliArgs::has(const std::string& key) const { return flags_.count(key) > 0; }

std::string CliArgs::get_string(const std::string& key, const std::string& fallback) const {
  const auto it = flags_.find(key);
  return it == flags_.end() ? fallback : it->second;
}

namespace {

/// Converts the whole of `text` with `parse` (a strtoll/strtod wrapper);
/// throws CheckError naming the flag and its value when `text` has no
/// number, has trailing characters, or is out of range.
template <typename Parse>
auto parse_flag(const std::string& key, const std::string& text, const char* kind,
                Parse parse) {
  const char* begin = text.c_str();
  char* end = nullptr;
  errno = 0;
  const auto value = parse(begin, &end);
  if (end == begin || *end != '\0') {
    throw CheckError("--" + key + "=" + text + ": not " + kind);
  }
  if (errno == ERANGE) {
    throw CheckError("--" + key + "=" + text + ": out of range");
  }
  return value;
}

}  // namespace

std::int64_t CliArgs::get_int(const std::string& key, std::int64_t fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end() || it->second.empty()) return fallback;
  return parse_flag(key, it->second, "an integer", [](const char* s, char** end) {
    return static_cast<std::int64_t>(std::strtoll(s, end, 10));
  });
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end() || it->second.empty()) return fallback;
  return parse_flag(key, it->second, "a number",
                    [](const char* s, char** end) { return std::strtod(s, end); });
}

bool CliArgs::get_bool(const std::string& key, bool fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  if (it->second.empty() || it->second == "true" || it->second == "1") return true;
  return false;
}

void apply_thread_cap(std::int64_t n) {
  if (n <= 0) return;
#ifdef CPR_HAVE_OPENMP
  omp_set_num_threads(static_cast<int>(n));
#endif
}

}  // namespace cpr
