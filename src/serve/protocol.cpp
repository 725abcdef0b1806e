#include "serve/protocol.hpp"

#include <cstdio>
#include <sstream>

#include "common/dataset_io.hpp"
#include "util/check.hpp"

namespace cpr::serve {

namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::istringstream stream(line);
  std::vector<std::string> tokens;
  std::string token;
  while (stream >> token) tokens.push_back(std::move(token));
  return tokens;
}

void expect_arity(const std::vector<std::string>& tokens, std::size_t expected) {
  CPR_CHECK_MSG(tokens.size() == expected,
                "request '" << tokens.front() << "' takes " << expected - 1
                            << " argument(s), got " << tokens.size() - 1);
}

}  // namespace

Request parse_request(const std::string& line) {
  const auto tokens = tokenize(line);
  CPR_CHECK_MSG(!tokens.empty(), "empty request");
  const std::string& command = tokens.front();

  Request request;
  if (command == "PREDICT") {
    expect_arity(tokens, 3);
    request.kind = RequestKind::Predict;
    request.model = tokens[1];
    for (const auto& field :
         common::split_fields(tokens[2], ',', "PREDICT value list")) {
      request.values.push_back(common::parse_number(field, "PREDICT value list"));
    }
    CPR_CHECK_MSG(!request.values.empty(), "PREDICT needs at least one value");
  } else if (command == "OBSERVE") {
    expect_arity(tokens, 4);
    request.kind = RequestKind::Observe;
    request.model = tokens[1];
    for (const auto& field :
         common::split_fields(tokens[2], ',', "OBSERVE value list")) {
      request.values.push_back(common::parse_number(field, "OBSERVE value list"));
    }
    CPR_CHECK_MSG(!request.values.empty(), "OBSERVE needs at least one value");
    request.seconds = common::parse_number(tokens[3], "OBSERVE seconds");
    CPR_CHECK_MSG(request.seconds > 0.0, "OBSERVE seconds must be positive");
  } else if (command == "REFIT") {
    expect_arity(tokens, 2);
    request.kind = RequestKind::Refit;
    request.model = tokens[1];
  } else if (command == "LOAD") {
    expect_arity(tokens, 2);
    request.kind = RequestKind::Load;
    request.model = tokens[1];
  } else if (command == "UNLOAD") {
    expect_arity(tokens, 2);
    request.kind = RequestKind::Unload;
    request.model = tokens[1];
  } else if (command == "STATS") {
    expect_arity(tokens, 1);
    request.kind = RequestKind::Stats;
  } else if (command == "METRICS") {
    expect_arity(tokens, 1);
    request.kind = RequestKind::Metrics;
  } else if (command == "QUIT") {
    expect_arity(tokens, 1);
    request.kind = RequestKind::Quit;
  } else if (command == "FRAME") {
    // The socket front end intercepts a well-formed `FRAME BINARY` before
    // dispatch; reaching the parser means the transport does not support
    // framing (stdio) or the argument is wrong.
    CPR_CHECK_MSG(false,
                  "FRAME BINARY is only available on the TCP and Unix sockets");
  } else {
    CPR_CHECK_MSG(
        false, "unknown request '"
                   << command
                   << "' (PREDICT/OBSERVE/REFIT/LOAD/UNLOAD/STATS/METRICS/QUIT)");
  }
  return request;
}

std::string format_prediction(double seconds) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "OK %.17g", seconds);
  return buffer;
}

bool is_frame_binary_request(const std::string& line) {
  const auto tokens = tokenize(line);
  return tokens.size() == 2 && tokens[0] == "FRAME" && tokens[1] == "BINARY";
}

std::string encode_frame(std::string_view payload) {
  CPR_CHECK_MSG(payload.size() <= kMaxFrameBytes,
                "frame payload of " << payload.size() << " bytes exceeds the "
                                    << kMaxFrameBytes << "-byte frame limit");
  const auto length = static_cast<std::uint32_t>(payload.size());
  std::string frame(4, '\0');
  frame[0] = static_cast<char>(length & 0xff);
  frame[1] = static_cast<char>((length >> 8) & 0xff);
  frame[2] = static_cast<char>((length >> 16) & 0xff);
  frame[3] = static_cast<char>((length >> 24) & 0xff);
  frame.append(payload);
  return frame;
}

FrameDecoder::FrameDecoder(std::uint32_t max_frame_bytes)
    : max_frame_bytes_(max_frame_bytes) {
  CPR_CHECK_MSG(max_frame_bytes_ > 0, "frame size limit must be positive");
}

void FrameDecoder::feed(std::string_view bytes) { buffer_.append(bytes); }

bool FrameDecoder::next(std::string& payload) {
  CPR_CHECK_MSG(!poisoned_, "binary frame stream already failed — close the connection");
  if (buffer_.size() < 4) return false;
  const std::uint32_t length =
      static_cast<std::uint32_t>(static_cast<unsigned char>(buffer_[0])) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(buffer_[1])) << 8) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(buffer_[2])) << 16) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(buffer_[3])) << 24);
  if (length == 0 || length > max_frame_bytes_) {
    poisoned_ = true;
    CPR_CHECK_MSG(false, "invalid binary frame length " << length << " (limit "
                                                        << max_frame_bytes_ << ")");
  }
  if (buffer_.size() < 4 + static_cast<std::size_t>(length)) return false;
  payload.assign(buffer_, 4, length);
  buffer_.erase(0, 4 + static_cast<std::size_t>(length));
  return true;
}

std::string format_error(const std::string& what) {
  // CheckError messages read "CPR_CHECK failed: (...) at file:line — cause";
  // everything before the em-dash is for developers, not protocol clients.
  const auto dash = what.rfind(" — ");
  std::string reason =
      dash == std::string::npos ? what : what.substr(dash + std::string(" — ").size());
  std::ostringstream os;
  os << "ERR " << reason;
  return os.str();
}

}  // namespace cpr::serve
