#include "serve/framing.hpp"

#include <cerrno>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace wfd::serve {

LineReader::Status LineReader::next(std::string* line) {
  if (poisoned_) return poison_status_;
  for (;;) {
    // A line is over the cap when more than max_line bytes precede its
    // '\n' — whether or not the '\n' came in the same read.
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos && newline <= max_line_) {
      line->assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      if (!line->empty() && line->back() == '\r') line->pop_back();
      return Status::kLine;
    }
    if (newline != std::string::npos || buffer_.size() > max_line_) {
      poisoned_ = true;
      poison_status_ = Status::kTooLong;
      return Status::kTooLong;
    }
    if (eof_) {
      if (!buffer_.empty()) {
        line->assign(buffer_);
        buffer_.clear();
        return Status::kLine;
      }
      return Status::kEof;
    }
#if defined(__unix__) || defined(__APPLE__)
    char chunk[4096];
    const ssize_t got = ::read(fd_, chunk, sizeof chunk);
    if (got < 0) {
      if (errno == EINTR) continue;
      poisoned_ = true;
      poison_status_ = Status::kError;
      return Status::kError;
    }
    if (got == 0) {
      eof_ = true;
      continue;
    }
    buffer_.append(chunk, static_cast<std::size_t>(got));
#else
    poisoned_ = true;
    poison_status_ = Status::kError;
    return Status::kError;
#endif
  }
}

bool write_line(int fd, std::string_view line) {
#if defined(__unix__) || defined(__APPLE__)
  std::string framed;
  framed.reserve(line.size() + 1);
  framed.append(line);
  framed.push_back('\n');
  std::size_t off = 0;
  while (off < framed.size()) {
    ssize_t put;
#ifdef MSG_NOSIGNAL
    put = ::send(fd, framed.data() + off, framed.size() - off, MSG_NOSIGNAL);
    if (put < 0 && errno == ENOTSOCK) {
      put = ::write(fd, framed.data() + off, framed.size() - off);
    }
#else
    put = ::write(fd, framed.data() + off, framed.size() - off);
#endif
    if (put < 0) {
      if (errno == EINTR) continue;
      return false;  // EPIPE/ECONNRESET and friends: peer gone
    }
    off += static_cast<std::size_t>(put);
  }
  return true;
#else
  (void)fd;
  (void)line;
  return false;
#endif
}

}  // namespace wfd::serve
