// The load client of the serve workloads: one thread, one ppoll loop, four
// TCP connections to a running cpr_serve, open-loop Poisson arrivals. Every
// request is timed from its scheduled send, so a stall also delays the
// requests queued behind it; how late the generator itself ran is reported
// as the send lag.
//
// serve-miss    PREDICTs of configurations that are all distinct, so the
//               prediction cache can only miss: a fixed-rate phase, then a
//               rate search for the highest rate meeting the p99 limit.
// serve-hot-observe
//               PREDICTs Zipf(1.1) over a 1024-configuration working set;
//               10% of arrivals are OBSERVEs whose truth shifts 4x partway
//               through, with a REFIT after every 256 OBSERVEs.
//
// Both measured phases run in 1-second windows and go on, within a cap,
// until enough windows are valid (the generator sent on time); see
// phase_done and summarize_windows.
//
// Output checks: every serve-miss reply must equal the in-process
// predict_batch of the served archive bitwise. serve-hot-observe replays the
// OBSERVE/REFIT sequence offline and requires every reply to equal, bitwise,
// the prediction of a generation that was live while the request was in
// flight. OBSERVEs and REFITs share one connection with at most one request
// in flight, so the server buffers observations in the order they were sent
// and the replay is exact.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <iostream>
#include <map>

#include "core/model_file.hpp"
#include "harness.hpp"
#include "metrics/metrics.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace perfbench {

using namespace cpr;

namespace {

constexpr int kConnections = 4;
constexpr double kMissQps = 1000.0;  ///< serve-miss fixed rate
constexpr double kHotQps = 2000.0;   ///< serve-hot-observe rate
constexpr double kSloSeconds = 2e-3;         ///< PREDICT p99 limit of the rate search
constexpr double kSendLagBoundSeconds = 250e-6;  ///< generator p99 lateness bound
constexpr std::uint64_t kWakeEarlyNs = 300'000;  ///< sleep ends this long before a send

enum class Kind { Predict, Observe, Refit };

struct Request {
  Kind kind = Kind::Predict;
  int conn = 0;
  std::size_t item = 0;    ///< configuration index (PREDICT/OBSERVE)
  std::size_t window = 0;  ///< the 1-second window (segment) it was due in
  std::uint64_t due_ns = 0, sent_ns = 0, done_ns = 0;
  std::string line;
  std::string reply;
  bool done = false;
};

struct Connection {
  int fd = -1;
  bool serialized = false;         ///< at most one request in flight
  std::deque<std::size_t> queue;   ///< due, not yet sent
  std::deque<std::size_t> pending; ///< sent, awaiting their reply in order
  std::string out, in;
};

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error(message);
}

class LoadClient {
 public:
  explicit LoadClient(std::uint16_t port) {
    for (auto& c : conns_) {
      c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (c.fd < 0) fail("socket() failed");
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        fail("cannot connect to the server: " + std::string(std::strerror(errno)));
      }
      const int one = 1;
      ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
  }
  ~LoadClient() {
    for (auto& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  Connection& conn(int i) { return conns_[static_cast<std::size_t>(i)]; }

  /// Sends every request when due (requests sorted by due time) and
  /// collects the replies, until all are answered or `deadline_ns` passes;
  /// unanswered requests keep done == false.
  void run(std::vector<Request>& requests, std::uint64_t deadline_ns) {
    std::size_t next = 0;
    std::size_t outstanding = requests.size();
    pollfd fds[kConnections];
    char buffer[1 << 16];
    while (outstanding > 0) {
      std::uint64_t now = now_ns();
      if (now > deadline_ns) break;
      while (next < requests.size() && requests[next].due_ns <= now) {
        conn(requests[next].conn).queue.push_back(next);
        ++next;
      }
      for (int i = 0; i < kConnections; ++i) {
        Connection& c = conn(i);
        while (!c.queue.empty() && (!c.serialized || c.pending.empty())) {
          Request& r = requests[c.queue.front()];
          c.pending.push_back(c.queue.front());
          c.queue.pop_front();
          r.sent_ns = now_ns();
          c.out += r.line;
          c.out += '\n';
        }
        write_some(c);
        fds[i] = {c.fd, static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)), 0};
      }
      // Sleep until shortly before the next send is due, then poll without
      // sleeping, so the wake-up of an idle CPU does not make the send late.
      now = now_ns();
      std::uint64_t wait_ns = 1'000'000;
      if (next < requests.size()) {
        const std::uint64_t wake = requests[next].due_ns - std::min(requests[next].due_ns, kWakeEarlyNs);
        wait_ns = wake > now ? std::min(wait_ns, wake - now) : 0;
      }
      const timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                             static_cast<long>(wait_ns % 1'000'000'000)};
      if (::ppoll(fds, kConnections, &timeout, nullptr) < 0 && errno != EINTR) {
        fail("ppoll() failed");
      }
      for (int i = 0; i < kConnections; ++i) {
        if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
        Connection& c = conn(i);
        const ssize_t got = ::recv(c.fd, buffer, sizeof(buffer), MSG_DONTWAIT);
        if (got == 0) fail("the server closed a connection");
        if (got < 0) {
          if (errno == EAGAIN || errno == EINTR) continue;
          fail("recv() failed: " + std::string(std::strerror(errno)));
        }
        const std::uint64_t stamp = now_ns();
        c.in.append(buffer, static_cast<std::size_t>(got));
        std::size_t newline;
        while ((newline = c.in.find('\n')) != std::string::npos) {
          if (c.pending.empty()) fail("reply without a request");
          Request& r = requests[c.pending.front()];
          c.pending.pop_front();
          r.reply = c.in.substr(0, newline);
          c.in.erase(0, newline + 1);
          r.done_ns = stamp;
          r.done = true;
          --outstanding;
        }
      }
    }
    for (auto& c : conns_) {
      if (!c.queue.empty() || !c.pending.empty()) fail("requests still unanswered at the deadline");
    }
  }

  /// One METRICS exposition, over connection 0 while it is idle.
  std::map<std::string, double> metrics() {
    Connection& c = conn(0);
    c.out = "METRICS\n";
    while (!c.out.empty()) write_some(c, /*block=*/true);
    std::string text;
    char buffer[1 << 16];
    while (!(text.size() >= 3 && text.compare(text.size() - 3, 3, "OK\n") == 0 &&
             (text.size() == 3 || text[text.size() - 4] == '\n'))) {
      const ssize_t got = ::recv(c.fd, buffer, sizeof(buffer), 0);
      if (got <= 0) fail("METRICS scrape failed");
      text.append(buffer, static_cast<std::size_t>(got));
    }
    std::map<std::string, double> values;
    std::size_t begin = 0;
    while (begin < text.size()) {
      const std::size_t end = text.find('\n', begin);
      const std::string line = text.substr(begin, end - begin);
      begin = end + 1;
      if (line.empty() || line[0] == '#' || line == "OK") continue;
      const std::size_t space = line.rfind(' ');
      if (space == std::string::npos) continue;
      values[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
    }
    return values;
  }

 private:
  static void write_some(Connection& c, bool block = false) {
    while (!c.out.empty()) {
      const ssize_t n =
          ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL | (block ? 0 : MSG_DONTWAIT));
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN) return;
        fail("send() failed: " + std::string(std::strerror(errno)));
      }
      c.out.erase(0, static_cast<std::size_t>(n));
    }
  }

  Connection conns_[kConnections];
};

// --------------------------------------------------------------- telemetry

using Scrape = std::map<std::string, double>;

double delta(const Scrape& after, const Scrape& before, const std::string& key) {
  const auto a = after.find(key);
  const auto b = before.find(key);
  return (a == after.end() ? 0.0 : a->second) - (b == before.end() ? 0.0 : b->second);
}

/// Server-side stage means and counters over one measured phase.
void record_serve_layers(const Scrape& after, const Scrape& before, JsonObject& out) {
  const auto mean_us = [&](const std::string& histogram) {
    const double count = delta(after, before, histogram + "_count");
    return count > 0 ? delta(after, before, histogram + "_sum") / count * 1e6 : 0.0;
  };
  out.num("serve.admit_us", mean_us("cpr_admission_wait_seconds"));
  out.num("serve.batch_wait_us", mean_us("cpr_batch_wait_seconds"));
  out.num("serve.predict_us", mean_us("cpr_predict_seconds"));
  out.num("serve.flush_us", mean_us("cpr_flush_seconds"));
  out.num("serve.request_us", mean_us("cpr_request_latency_seconds"));
  out.num("serve.refit_ms", mean_us("cpr_refit_seconds") * 1e-3);
  const double batches = delta(after, before, "cpr_batches_total");
  out.num("serve.batch_size",
          batches > 0 ? delta(after, before, "cpr_batch_requests_total") / batches : 0.0);
  const double hits = delta(after, before, "cpr_cache_hits_total");
  const double lookups = hits + delta(after, before, "cpr_cache_misses_total");
  out.num("serve.cache_hits", hits);
  out.num("serve.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0);
  out.num("serve.busy_shed", delta(after, before, "cpr_busy_shed_total"));
  const auto drift = after.find("cpr_drift_abs_log_error");
  out.num("serve.drift_abs_log_error", drift == after.end() ? 0.0 : drift->second);
}

// ---------------------------------------------------------------- schedule

/// Poisson arrival offsets (ns from the phase start) at `qps` over
/// [0, duration); callers add the start once everything else is prepared.
std::vector<std::uint64_t> poisson_arrivals(Rng& rng, double qps, double duration_s) {
  std::vector<std::uint64_t> due;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / qps;
    if (t >= duration_s) return due;
    due.push_back(static_cast<std::uint64_t>(t * 1e9));
  }
}

/// Makes the schedule absolute, starting shortly after now.
std::uint64_t start_schedule(std::vector<Request>& requests) {
  const std::uint64_t start = now_ns() + 2'000'000;
  for (Request& r : requests) r.due_ns += start;
  return start;
}

double parse_ok_value(const std::string& reply, bool& ok) {
  ok = reply.size() > 3 && reply.compare(0, 3, "OK ") == 0;
  return ok ? std::strtod(reply.c_str() + 3, nullptr) : 0.0;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

/// Records each request as a span lane: the request from due to reply, with
/// children for the generator's lateness and the wait for the reply.
void add_request_spans(Spans& spans, const std::vector<Request>& requests,
                       std::uint64_t phase_span, std::uint64_t& next_request_id) {
  if (!spans.enabled()) return;
  static const char* kNames[] = {"client.predict", "client.observe", "client.refit"};
  for (const Request& r : requests) {
    if (!r.done) continue;
    const std::uint64_t lane = next_request_id++;
    const std::uint64_t id =
        spans.add(kNames[static_cast<int>(r.kind)], r.due_ns, r.done_ns, phase_span, lane);
    spans.add("client.send_lag", r.due_ns, r.sent_ns, id, lane);
    spans.add("client.wait_reply", r.sent_ns, r.done_ns, id, lane);
  }
}

struct Counts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// When a measured phase of 1-second windows may stop: after `min_s`, once
/// a quarter of the run's seconds are valid windows; at the latest at 1.5x
/// the run, or at 3x the run while no window is valid yet. A window is
/// valid when the generator, alone on its core, sent on time; on a host that
/// deschedules virtual CPUs the invalid windows time the host, not the
/// server.
bool phase_done(double elapsed_s, double min_s, double run_s, std::size_t valid_windows) {
  const auto wanted = static_cast<std::size_t>(std::ceil(0.25 * run_s));
  return (elapsed_s >= min_s && valid_windows >= wanted) ||
         elapsed_s >= (valid_windows > 0 ? 1.5 : 3.0) * run_s;
}

// --------------------------------------------------------------- serve-miss

struct PointResult {
  double qps = 0.0;
  std::vector<Sample> samples;  ///< every answered request, by 1-second window
  std::uint64_t sent = 0, wrong = 0, errors = 0, busy = 0, unanswered = 0;
  double cache_hits = 0.0;
  WindowedLatency latency;
  bool meets_slo() const {
    return busy + errors + wrong + unanswered == 0 && latency.p99_s <= kSloSeconds;
  }
};

PointResult run_miss_point(LoadClient& client, DistinctConfigs& stream,
                           const common::Regressor& model, const std::string& model_name,
                           double qps, double duration_s, Rng& rng, Spans& spans,
                           const std::string& phase_name, std::uint64_t& next_request_id,
                           std::size_t first_window = 0, Scrape* before_out = nullptr,
                           Scrape* after_out = nullptr) {
  const std::vector<std::uint64_t> due = poisson_arrivals(rng, qps, duration_s);
  const std::vector<grid::Config> configs = stream.take(due.size());
  const std::vector<double> expected = model.predict_batch(to_matrix(configs));
  std::vector<Request> requests(due.size());
  for (std::size_t i = 0; i < due.size(); ++i) {
    requests[i].conn = static_cast<int>(i % kConnections);
    requests[i].item = i;
    requests[i].due_ns = due[i];
    requests[i].line = "PREDICT " + model_name + " " + format_config(configs[i]);
  }
  const Scrape before = client.metrics();
  const std::uint64_t phase_span = spans.open(phase_name);
  const std::uint64_t start = start_schedule(requests);
  client.run(requests, start + static_cast<std::uint64_t>((duration_s + 10.0) * 1e9));
  spans.close(phase_span);
  const Scrape after = client.metrics();

  PointResult result;
  result.qps = qps;
  result.sent = requests.size();
  result.cache_hits = delta(after, before, "cpr_cache_hits_total");
  for (const Request& r : requests) {
    if (!r.done) {
      ++result.unanswered;
      continue;
    }
    Sample sample{first_window + (r.due_ns - start) / 1'000'000'000, std::nan(""),
                  static_cast<double>(r.sent_ns - r.due_ns) * 1e-9};
    bool ok = false;
    const double value = parse_ok_value(r.reply, ok);
    if (r.reply == "BUSY") {
      ++result.busy;
    } else if (!ok) {
      ++result.errors;
    } else if (!same_bits(value, expected[r.item])) {
      ++result.wrong;
    } else {
      sample.latency_s = static_cast<double>(r.done_ns - r.due_ns) * 1e-9;
    }
    result.samples.push_back(sample);
  }
  result.latency = summarize_windows(result.samples, kSendLagBoundSeconds);
  add_request_spans(spans, requests, phase_span, next_request_id);
  if (before_out) *before_out = before;
  if (after_out) *after_out = after;
  return result;
}

void merge(PointResult& into, const PointResult& part) {
  into.samples.insert(into.samples.end(), part.samples.begin(), part.samples.end());
  into.sent += part.sent;
  into.wrong += part.wrong;
  into.errors += part.errors;
  into.busy += part.busy;
  into.unanswered += part.unanswered;
  into.cache_hits += part.cache_hits;
  into.latency = summarize_windows(into.samples, kSendLagBoundSeconds);
}

std::string point_json(const PointResult& p) {
  JsonObject o;
  o.num("qps", p.qps);
  o.num("sent", static_cast<double>(p.sent));
  o.raw("latency_us", p.latency.json(1e6));
  o.num("busy", static_cast<double>(p.busy));
  o.num("errors", static_cast<double>(p.errors));
  o.num("wrong", static_cast<double>(p.wrong));
  o.num("unanswered", static_cast<double>(p.unanswered));
  o.num("cache_hits", p.cache_hits);
  o.flag("valid", p.latency.valid());
  o.flag("meets_slo", p.meets_slo());
  return o.render();
}

void run_serve_miss(const CliArgs& args, LoadClient& client, const common::Regressor& model,
                    Spans& spans, JsonObject& out) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double seconds = args.get_double("seconds", 10.0);
  const std::string name = args.get_string("model", "kripke-cpr");
  DistinctConfigs stream(seed);
  Rng rng(seed ^ 0xa11ull);
  std::uint64_t next_request_id = 1;
  Counts counts;
  std::string points = "[";
  bool honest_cache = true;

  const auto account = [&](const PointResult& p, bool must_succeed) {
    counts.attempted += p.sent;
    counts.failed += p.wrong + p.errors;  // a wrong or ERR reply is a failure anywhere
    if (must_succeed) counts.failed += p.busy + p.unanswered;
    if (p.cache_hits != 0.0) {
      honest_cache = false;
      counts.failed += static_cast<std::uint64_t>(p.cache_hits);
    }
  };

  // Warm-up, then the fixed-rate phase the latency metrics come from.
  account(run_miss_point(client, stream, model, name, kMissQps, 0.05 * seconds, rng, spans,
                         "serve_miss.warmup", next_request_id),
          true);
  // The fixed-rate phase runs in 1-second windows for at least half the run
  // (see phase_done).
  const std::uint64_t fixed_start = now_ns();
  Scrape before, after;
  PointResult fixed;
  fixed.qps = kMissQps;
  for (std::size_t window = 0;; ++window) {
    merge(fixed, run_miss_point(client, stream, model, name, kMissQps, 1.0, rng, spans,
                                "serve_miss.fixed_rate", next_request_id, window,
                                window == 0 ? &before : nullptr, &after));
    if (phase_done(seconds_since(fixed_start), 0.5 * seconds, seconds,
                   fixed.latency.valid_windows)) {
      break;
    }
  }
  account(fixed, true);
  points += point_json(fixed);
  record_serve_layers(after, before, out);

  // Rate search, in a time slice of its own after the fixed-rate phase:
  // double from 2x the fixed rate while the limit holds, then bisect. A
  // point where the generator itself ran late is invalid and neither passes
  // nor fails; with no valid point, max_qps_at_slo is not measured (null).
  const double point_s = std::max(0.5, 0.04 * seconds);
  double best = fixed.meets_slo() && fixed.latency.valid() ? kMissQps : 0.0;
  double failing = 0.0;
  double qps = 2.0 * kMissQps;
  bool retried = false;
  std::size_t valid_points = 0;
  const double budget_end = static_cast<double>(now_ns()) + 0.35 * seconds * 1e9;
  while (static_cast<double>(now_ns()) + (point_s + 0.3) * 1e9 < budget_end && qps <= 64000) {
    const PointResult p = run_miss_point(client, stream, model, name, qps, point_s, rng, spans,
                                         "serve_miss.rate_point", next_request_id);
    account(p, false);
    points += ',';
    points += point_json(p);
    if (!p.latency.valid()) {
      if (retried) break;  // the generator ran late twice: give up the search
      retried = true;
      continue;
    }
    ++valid_points;
    if (p.meets_slo()) {
      best = std::max(best, qps);
    } else {
      failing = failing == 0.0 ? qps : std::min(failing, qps);
    }
    if (failing == 0.0) {
      qps *= 2.0;
    } else {
      if (failing - best <= 0.125 * best) break;
      qps = std::round((best + failing) / 2.0);
    }
  }
  points += "]";

  out.raw("predict_us", fixed.latency.json(1e6));
  out.num("max_qps_at_slo", valid_points ? best : std::nan(""));
  out.num("rate_points_valid", static_cast<double>(valid_points));
  out.num("client.send_lag_us", fixed.latency.lag_p99_s * 1e6);
  out.flag("latency_valid", fixed.latency.valid());
  out.flag("cache_honest", honest_cache);
  out.raw("rate_points", points);
  out.num("attempted", static_cast<double>(counts.attempted));
  out.num("failed", static_cast<double>(counts.failed));
}

// -------------------------------------------------------- serve-hot-observe

struct Generation {
  common::RegressorPtr model;
  std::vector<double> hot_predictions;
};

void run_serve_hot_observe(const CliArgs& args, LoadClient& client,
                           const common::Regressor& archive_model, Spans& spans,
                           JsonObject& out) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double seconds = args.get_double("seconds", 10.0);
  const std::string name = args.get_string("model", "kripke-online");
  constexpr double kObserveShare = 0.1;
  constexpr double kShift = 4.0;
  constexpr std::size_t kRefitEvery = 256;

  const std::vector<grid::Config> hot = hot_set(seed);
  std::vector<double> zipf_cdf(hot.size());
  double total = 0.0;
  for (std::size_t r = 0; r < hot.size(); ++r) {
    total += std::pow(static_cast<double>(r + 1), -1.1);
    zipf_cdf[r] = total;
  }
  Rng rng(seed ^ 0x40bull);
  const auto zipf = [&] {
    const double u = rng.uniform() * total;
    const auto it = std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - zipf_cdf.begin()),
                                 hot.size() - 1);
  };

  // PREDICTs round-robin over connections 0..2; OBSERVEs and REFITs in
  // order on connection 3, which holds one request at a time. The phase runs
  // in 1-second segments, each its own Poisson schedule, like the serve-miss
  // fixed-rate phase, for at least 0.85x the run (see phase_done). The
  // truth shifts from 0.425x the run on.
  client.conn(3).serialized = true;
  std::vector<Request> requests;
  std::vector<std::pair<std::size_t, double>> observations;  // (hot item, seconds)
  std::vector<Sample> sent_predicts;  // provisional: replies not yet checked
  std::size_t predicts = 0;
  const Scrape before = client.metrics();
  const std::uint64_t phase_span = spans.open("serve_hot_observe.mixed");
  const std::uint64_t phase_start = now_ns();
  for (std::size_t window = 0;; ++window) {
    const bool shifted = seconds_since(phase_start) >= 0.425 * seconds;
    std::vector<Request> segment;
    for (const std::uint64_t t : poisson_arrivals(rng, kHotQps, 1.0)) {
      Request r;
      r.due_ns = t;
      r.window = window;
      r.item = zipf();
      if (rng.uniform() < kObserveShare) {
        const double truth =
            kripke().execute(hot[r.item], observations.size()) * (shifted ? kShift : 1.0);
        char value[32];
        std::snprintf(value, sizeof(value), "%.17g", truth);
        r.kind = Kind::Observe;
        r.conn = 3;
        r.line = "OBSERVE " + name + " " + format_config(hot[r.item]) + " " + value;
        observations.emplace_back(r.item, std::strtod(value, nullptr));
        segment.push_back(std::move(r));
        if (observations.size() % kRefitEvery == 0) {
          Request refit;
          refit.kind = Kind::Refit;
          refit.conn = 3;
          refit.due_ns = t;
          refit.window = window;
          refit.line = "REFIT " + name;
          segment.push_back(std::move(refit));
        }
      } else {
        r.kind = Kind::Predict;
        r.conn = static_cast<int>(predicts++ % 3);
        r.line = "PREDICT " + name + " " + format_config(hot[r.item]);
        segment.push_back(std::move(r));
      }
    }
    const std::uint64_t start = start_schedule(segment);
    client.run(segment, start + 30'000'000'000ull);
    for (const Request& r : segment) {
      if (r.kind == Kind::Predict && r.done) {
        sent_predicts.push_back({window, static_cast<double>(r.done_ns - r.due_ns) * 1e-9,
                                 static_cast<double>(r.sent_ns - r.due_ns) * 1e-9});
      }
    }
    requests.insert(requests.end(), std::make_move_iterator(segment.begin()),
                    std::make_move_iterator(segment.end()));
    if (phase_done(seconds_since(phase_start), 0.85 * seconds, seconds,
                   summarize_windows(sent_predicts, kSendLagBoundSeconds).valid_windows)) {
      break;
    }
  }
  spans.close(phase_span);
  const std::uint64_t last_quarter = phase_start + (now_ns() - phase_start) * 3 / 4;
  const Scrape after = client.metrics();
  std::uint64_t next_request_id = 1;
  add_request_spans(spans, requests, phase_span, next_request_id);

  // Offline replay of every REFIT: clone through an archive round trip (as
  // the server does), observe the same batch in order, refresh.
  Counts counts;
  counts.attempted = requests.size();
  const linalg::Matrix hot_matrix = to_matrix(hot);
  std::vector<Generation> generations;
  generations.push_back({nullptr, archive_model.predict_batch(hot_matrix)});
  std::vector<const Request*> refits;
  std::size_t replayed = 0;
  const common::Regressor* current = &archive_model;
  std::vector<Sample> observe_latency, refit_latency;  // pooled: one window
  std::vector<Sample> predict_samples;
  for (const Request& r : requests) {
    if (!r.done) {
      ++counts.failed;
      continue;
    }
    const bool ok = r.reply.compare(0, 3, "OK ") == 0;
    if (r.kind == Kind::Observe) {
      if (!ok) ++counts.failed;
      observe_latency.push_back({0, static_cast<double>(r.done_ns - r.sent_ns) * 1e-9, 0.0});
    } else if (r.kind == Kind::Refit) {
      refits.push_back(&r);
      refit_latency.push_back({0, static_cast<double>(r.done_ns - r.sent_ns) * 1e-9, 0.0});
      const std::string expect = "observations=" + std::to_string(kRefitEvery);
      if (!ok || r.reply.find(expect) == std::string::npos) ++counts.failed;
      BufferSink sink;
      current->save(sink);
      BufferSource source(sink.buffer());
      Generation next;
      next.model = common::ModelRegistry::instance().load(current->type_tag(), source);
      for (std::size_t k = 0; k < kRefitEvery; ++k, ++replayed) {
        next.model->observe(hot[observations[replayed].first], observations[replayed].second);
      }
      next.model->refresh();
      next.hot_predictions = next.model->predict_batch(hot_matrix);
      generations.push_back(std::move(next));
      current = generations.back().model.get();
    }
  }

  // Every PREDICT must match a generation live while it was in flight:
  // at least the refits acknowledged before it was sent, at most the refits
  // sent before its reply arrived.
  std::vector<double> tail_predictions, tail_truths;
  for (const Request& r : requests) {
    if (r.kind != Kind::Predict || !r.done) continue;
    bool ok = false;
    const double value = parse_ok_value(r.reply, ok);
    std::size_t lo = 0, hi = 0;
    for (const Request* refit : refits) {
      if (refit->done_ns <= r.sent_ns) ++lo;
      if (refit->sent_ns <= r.done_ns) ++hi;
    }
    bool matched = false;
    for (std::size_t g = lo; ok && g <= hi && g < generations.size(); ++g) {
      matched = matched || same_bits(value, generations[g].hot_predictions[r.item]);
    }
    if (!matched) ++counts.failed;
    predict_samples.push_back(
        {r.window,
         matched ? static_cast<double>(r.done_ns - r.due_ns) * 1e-9 : std::nan(""),
         static_cast<double>(r.sent_ns - r.due_ns) * 1e-9});
    if (!matched) continue;
    if (r.due_ns >= last_quarter) {
      tail_predictions.push_back(value);
      tail_truths.push_back(kShift * kripke().base_time(hot[r.item]));
    }
  }

  record_serve_layers(after, before, out);
  const WindowedLatency predict_latency =
      summarize_windows(predict_samples, kSendLagBoundSeconds);
  out.raw("predict_us", predict_latency.json(1e6));
  out.raw("observe_us", summarize_windows(observe_latency, 0.0).json(1e6));
  out.raw("refit_ms", summarize_windows(refit_latency, 0.0).json(1e3));
  out.num("served_mlogq", metrics::mlogq(tail_predictions, tail_truths));
  out.num("served_mlogq_count", static_cast<double>(tail_predictions.size()));
  out.num("client.send_lag_us", predict_latency.lag_p99_s * 1e6);
  out.flag("latency_valid", predict_latency.valid());
  out.num("refits", static_cast<double>(refits.size()));
  out.num("attempted", static_cast<double>(counts.attempted));
  out.num("failed", static_cast<double>(counts.failed));
}

}  // namespace

int run_load_client(const CliArgs& args) {
  const std::string workload = args.get_string("workload", "serve-miss");
  const auto port = static_cast<std::uint16_t>(args.get_int("port", 0));
  const std::string archive = args.get_string("archive", "");
  const bool trace = args.get_bool("trace", false);
  const std::string dir = args.get_string("dir", ".");
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // wake on time for each scheduled send

  const common::RegressorPtr model = core::load_model_file(archive);
  LoadClient client(port);
  Spans spans(trace);
  JsonObject out;
  if (workload == "serve-miss") {
    run_serve_miss(args, client, *model, spans, out);
  } else if (workload == "serve-hot-observe") {
    run_serve_hot_observe(args, client, *model, spans, out);
  } else {
    std::cerr << "perfbench_harness client: unknown workload '" << workload << "'\n";
    return 2;
  }
  out.num("send_lag_bound_us", kSendLagBoundSeconds * 1e6);
  if (trace && !spans.write(dir + "/client_trace.json")) return 1;
  std::cout << out.render() << "\n";
  return 0;
}

}  // namespace perfbench
