// Process-level checks of the command-line tools, run against the real
// binaries.
//
// --help audit: every tool must exit 0 on --help and print one consistent
// usage block that names every flag it parses, with defaults. The per-tool
// flag lists below are the authoritative inventory (grep `args.get_*` /
// `args.has` in tools/*.cpp when adding a flag) — a flag missing from --help
// fails here, so help drift is caught in CI rather than by a confused
// operator.
//
// cpr_serve: out-of-range integer flags are refused with usage, and the
// --socket transport answers, closes per connection on QUIT, drains on
// SIGTERM and never replaces a file that is not a socket.
//
// The test binary receives the tools directory via the CPR_TOOLS_DIR
// compile definition (tests/CMakeLists.txt points it at the build tree).

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "serve/protocol.hpp"
#include "test_data.hpp"

extern char** environ;

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

// ------------------------------------------------------------- cpr_serve

TEST(CprServeFlags, OutOfRangeIntegersExitWithUsage) {
  // Each out-of-range, negative or non-integer value is refused before the
  // server (or any thread) starts; the timeout only bounds a build that
  // would start listening instead.
  const std::vector<std::string> cases = {
      "--tcp=70000",          "--tcp=-1",
      "--tcp=0 --socket=cpr_unused.sock",
      "--io-threads=-1",      "--max-inflight=-1", "--max-backlog=-1",
      "--max-batch=-1",       "--cache=-1",        "--cache-shards=-1",
      "--refit-after=-1",     "--observe-buffer=-1", "--max-wait-us=-1",
      "--trace-sample=-1",    "--tcp=80abc",       "--max-batch=abc"};
  for (const auto& flags : cases) {
    const auto result = run_command("timeout 20 " + tool_path("cpr_serve") +
                                    " --models=cpr-no-such-dir " + flags);
    EXPECT_EQ(result.status, 1) << flags << ":\n" << result.output;
    EXPECT_NE(result.output.find("usage: cpr_serve"), std::string::npos) << flags;
    const std::string flag = flags.substr(0, flags.find('='));
    EXPECT_NE(result.output.find("cpr_serve: " + flag), std::string::npos)
        << flags << " must be named as the reason:\n" << result.output;
  }
}

/// A spawned tool process with stdout+stderr captured in `log_path`;
/// killed on destruction if it is still running.
class ToolProcess {
 public:
  ToolProcess(const std::string& name, std::vector<std::string> args,
              const std::string& log_path)
      : log_path_(log_path) {
    std::string binary = tool_path(name);
    std::vector<char*> argv{binary.data()};
    for (auto& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    if (::posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv.data(),
                      environ) != 0) {
      pid_ = -1;
    }
    posix_spawn_file_actions_destroy(&actions);
  }
  ~ToolProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  ToolProcess(const ToolProcess&) = delete;
  ToolProcess& operator=(const ToolProcess&) = delete;

  bool started() const { return pid_ > 0; }

  /// Sends `signal` and waits up to `timeout` for the process to exit.
  /// Returns its exit status, or -1 if it died by a signal or is still
  /// running (the destructor then kills it).
  int stop(int signal, std::chrono::seconds timeout) {
    ::kill(pid_, signal);
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
      int raw = 0;
      if (::waitpid(pid_, &raw, WNOHANG) == pid_) {
        pid_ = -1;
        return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return -1;
  }

  std::string log() const {
    std::ifstream in(log_path_);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
  }

 private:
  std::string log_path_;
  pid_t pid_ = -1;
};

/// Connects to a Unix stream socket, retrying for up to 10 s while the
/// server starts; -1 if it never accepts.
int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  for (int attempt = 0; attempt < 1000; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) return fd;
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

/// Sends one request line and returns its reply without the newline, or
/// "<eof>" if the connection closes first.
std::string request(int fd, const std::string& line) {
  const std::string bytes = line + "\n";
  if (::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(bytes.size())) {
    return "<eof>";
  }
  std::string reply;
  char c;
  while (::read(fd, &c, 1) == 1) {
    if (c == '\n') return reply;
    reply += c;
  }
  return "<eof>";
}

TEST(CprServeSocket, ServesQuitsPerConnectionAndDrainsOnSigterm) {
  cpr::testdata::TempModelDir dir("serve_socket");
  auto model = cpr::common::ModelRegistry::instance().create(
      "cpr", cpr::testdata::zoo_spec("cpr"));
  model->fit(cpr::testdata::sample_power_law(256, 7));
  dir.save("pl", *model);
  const std::string socket_path = dir.path() + "/serve.sock";
  ASSERT_LT(socket_path.size(), sizeof(sockaddr_un{}.sun_path));

  ToolProcess serve("cpr_serve",
                    {"--models=" + dir.path(), "--socket=" + socket_path,
                     "--io-threads=1"},
                    dir.path() + "/serve.log");
  ASSERT_TRUE(serve.started());
  const int first = connect_unix(socket_path);
  ASSERT_GE(first, 0) << serve.log();
  const int second = connect_unix(socket_path);
  ASSERT_GE(second, 0) << serve.log();

  EXPECT_EQ(request(first, "LOAD pl").rfind("OK", 0), 0u);
  EXPECT_EQ(request(first, "PREDICT pl 100,100"),
            cpr::serve::format_prediction(model->predict({100.0, 100.0})));

  // QUIT closes only the issuing connection; the other one is still served.
  EXPECT_EQ(request(first, "QUIT"), "OK bye");
  char byte;
  EXPECT_EQ(::read(first, &byte, 1), 0);
  ::close(first);
  EXPECT_EQ(request(second, "PREDICT pl 100,200"),
            cpr::serve::format_prediction(model->predict({100.0, 200.0})));

  // SIGTERM drains: the idle connection is closed, the process exits 0 and
  // takes its socket file with it.
  EXPECT_EQ(serve.stop(SIGTERM, std::chrono::seconds(20)), 0) << serve.log();
  EXPECT_EQ(::read(second, &byte, 1), 0);
  ::close(second);
  EXPECT_FALSE(std::filesystem::exists(socket_path));
}

TEST(CprServeSocket, RefusesToReplaceARegularFile) {
  cpr::testdata::TempModelDir dir("serve_socket_file");
  const std::string path = dir.path() + "/notes.txt";
  { std::ofstream(path) << "operator data\n"; }
  // A build that replaced the file would listen until the timeout.
  const auto result = run_command("timeout 20 " + tool_path("cpr_serve") +
                                  " --models=" + dir.path() + " --socket=" + path);
  EXPECT_EQ(result.status, 1) << result.output;
  std::ifstream in(path);
  std::string content;
  std::getline(in, content);
  EXPECT_EQ(content, "operator data");
}

}  // namespace
