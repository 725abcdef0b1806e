// --help audit for the command-line tools: every tool must exit 0 on
// --help and print one consistent usage block that names every flag it
// parses, with defaults. The per-tool flag lists below are the authoritative
// inventory (grep `args.get_*` / `args.has` in tools/*.cpp when adding a
// flag) — a flag missing from --help fails here, so help drift is caught in
// CI rather than by a confused operator.
//
// The test binary receives the tools directory via the CPR_TOOLS_DIR
// compile definition (tests/CMakeLists.txt points it at the build tree).

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <sys/wait.h>
#include <vector>

namespace {

struct RunResult {
  std::string output;  ///< combined stdout + stderr
  int status = -1;     ///< process exit status (-1 if it did not exit cleanly)
};

RunResult run_command(const std::string& command) {
  RunResult result;
  FILE* pipe = ::popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    result.output.append(buffer, n);
  }
  const int raw = ::pclose(pipe);
  if (raw >= 0 && WIFEXITED(raw)) result.status = WEXITSTATUS(raw);
  return result;
}

std::string tool_path(const std::string& name) {
  return std::string(CPR_TOOLS_DIR) + "/" + name;
}

struct ToolSpec {
  const char* name;
  std::vector<const char*> flags;  ///< every flag the tool parses (minus --help)
  bool requires_arguments;         ///< no-arg invocation must fail with usage
};

const std::vector<ToolSpec> kTools = {
    {"cpr_train",
     {"--data", "--out", "--model", "--cells", "--rank", "--lambda", "--log-dims",
      "--categorical", "--hyper", "--tune", "--tune-threads", "--seed",
      "--profile", "--trace-out"},
     true},
    {"cpr_tune",
     {"--data", "--model", "--out", "--trials", "--folds", "--rungs", "--eta",
      "--threads", "--seed", "--cells", "--log-dims", "--categorical", "--hyper",
      "--space", "--json", "--csv", "--profile", "--trace-out"},
     true},
    {"cpr_predict", {"--model", "--configs", "--out", "--threads"}, true},
    {"cpr_serve",
     {"--models", "--socket", "--tcp", "--io-threads", "--max-inflight",
      "--max-backlog", "--threads", "--max-batch",
      "--max-wait-us", "--cache", "--cache-shards", "--refit-after",
      "--observe-buffer", "--trace-sample", "--trace-out", "--metrics-out"},
     true},
    {"cpr_obscheck", {"--metrics", "--trace"}, true},
    // cpr_bench without arguments would launch the full bench run, so only
    // its --help surface is audited.
    {"cpr_bench",
     {"--bench-dir", "--suites", "--quick", "--list", "--out", "--baseline",
      "--threshold", "--no-gate", "--update-baseline"},
     false},
};

TEST(ToolsHelp, HelpExitsZeroAndListsEveryFlag) {
  for (const auto& tool : kTools) {
    const auto result = run_command(tool_path(tool.name) + " --help");
    EXPECT_EQ(result.status, 0) << tool.name << " --help must exit 0; output:\n"
                                << result.output;
    EXPECT_NE(result.output.find("usage: " + std::string(tool.name)),
              std::string::npos)
        << tool.name << " --help must open with 'usage: " << tool.name << "'";
    EXPECT_NE(result.output.find("default"), std::string::npos)
        << tool.name << " --help must state defaults";
    for (const char* flag : tool.flags) {
      EXPECT_NE(result.output.find(flag), std::string::npos)
          << tool.name << " --help does not mention " << flag;
    }
  }
}

TEST(ToolsHelp, MissingRequiredArgumentsFailWithUsage) {
  for (const auto& tool : kTools) {
    if (!tool.requires_arguments) continue;
    const auto result = run_command(tool_path(tool.name));
    EXPECT_NE(result.status, 0)
        << tool.name << " without required flags must exit nonzero";
    EXPECT_NE(result.output.find("usage:"), std::string::npos)
        << tool.name << " must print usage when required flags are missing";
  }
}

}  // namespace
