#include "io/line_stream.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>

namespace als {

bool LineReader::readLine(std::string& line) {
  for (;;) {
    const std::size_t nl = buffer_.find('\n', pos_ + scanned_);
    if (nl != std::string::npos) {
      if (nl - pos_ > kMaxLineBytes) return false;
      line.assign(buffer_, pos_, nl - pos_);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      pos_ = nl + 1;
      scanned_ = 0;
      compact();
      return true;
    }
    scanned_ = buffer_.size() - pos_;
    if (scanned_ > kMaxLineBytes || !fill()) return false;
  }
}

bool LineReader::readExact(std::size_t n, std::string& out) {
  while (buffer_.size() - pos_ < n) {
    if (!fill()) return false;
  }
  out.assign(buffer_, pos_, n);
  pos_ += n;
  scanned_ = 0;
  compact();
  return true;
}

bool LineReader::fill() {
  char chunk[65536];
  ssize_t n;
  do {
    n = ::read(fd_, chunk, sizeof chunk);
  } while (n < 0 && errno == EINTR);  // a signal is not an EOF
  if (n <= 0) return false;  // EOF or real error: the stream is done
  buffer_.append(chunk, static_cast<std::size_t>(n));
  return true;
}

void LineReader::compact() {
  if (pos_ > (1u << 20)) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
}

bool sendAll(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

std::string_view nextToken(std::string_view& rest) {
  std::size_t a = rest.find_first_not_of(" \t");
  if (a == std::string_view::npos) {
    rest = {};
    return {};
  }
  std::size_t b = rest.find_first_of(" \t", a);
  std::string_view token = rest.substr(
      a, b == std::string_view::npos ? std::string_view::npos : b - a);
  rest = b == std::string_view::npos ? std::string_view{} : rest.substr(b);
  return token;
}

bool parseNum(std::string_view s, std::uint64_t* out) {
  // from_chars takes no sign, no leading space and no base prefix for an
  // unsigned decimal; it reports overflow instead of saturating.
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (s.empty() || ec != std::errc{} || end != s.data() + s.size()) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace als
