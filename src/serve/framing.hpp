// NDJSON socket framing for the serve daemon: a buffered line reader and a
// write-everything line writer, both with explicit peer-gone semantics.
//
// The daemon's protocol is one JSON object per '\n'-terminated line in each
// direction (the same framing obs::JsonObject::write_line produces), so the
// only transport concerns are (a) reassembling lines from arbitrary read
// chunks with a hard cap on line length — a client that streams an unbounded
// "line" must get an error, never an unbounded buffer — and (b) making a
// write to a dead peer report failure instead of killing the process: sends
// use MSG_NOSIGNAL where available and the daemon's mains ignore SIGPIPE, so
// EPIPE/ECONNRESET surface as a false return the session layer turns into
// teardown.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace wfd::serve {

/// Reassembles '\n'-framed lines from a blocking fd. EINTR is retried;
/// a trailing '\r' is stripped (telnet-friendly); a final unterminated line
/// before EOF is delivered as a line.
class LineReader {
 public:
  enum class Status {
    kLine,     ///< *line holds the next complete line
    kEof,      ///< orderly shutdown, no buffered data left
    kError,    ///< read failed (errno already captured by the caller's side)
    kTooLong,  ///< peer sent a line of more than max_line bytes
  };

  explicit LineReader(int fd, std::size_t max_line = std::size_t{1} << 20)
      : fd_(fd), max_line_(max_line) {}

  /// Block until a full line, EOF, or an error. After kTooLong or kError the
  /// reader is poisoned and keeps returning the same status.
  Status next(std::string* line);

 private:
  int fd_;
  std::size_t max_line_;
  std::string buffer_;
  bool eof_ = false;
  bool poisoned_ = false;
  Status poison_status_ = Status::kError;
};

/// Write `line` plus a trailing '\n' in full. Short writes and EINTR are
/// retried; any other failure — EPIPE and ECONNRESET in particular — returns
/// false, which callers must treat as "peer gone". Sends use MSG_NOSIGNAL on
/// sockets (with a plain write() fallback for pipe fds in tests), so a dead
/// peer can never raise SIGPIPE out of this function on Linux.
bool write_line(int fd, std::string_view line);

}  // namespace wfd::serve
