// Line-stream plumbing of the placement service's wire protocol
// (io/serve_protocol.h), shared by the daemon (tools/als_serve) and its
// replay client (tools/als_replay): a buffered reader that yields protocol
// lines and exact-size payloads, a whole-buffer send loop, and the
// protocol's token and number parsers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace als {

/// Longest protocol line, in bytes before its '\n'.  Every command, OPT,
/// RESULT header and PROGRESS line is far shorter; bulk data (CIRCUIT and
/// RESULT payloads) travels through `readExact` under its own cap.
inline constexpr std::size_t kMaxLineBytes = std::size_t{64} << 10;

/// Buffered reader over a stream fd (not owned).
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  /// Next line without its '\n' and a trailing '\r'.  False on EOF, a read
  /// error, or a line longer than kMaxLineBytes — the stream is unusable
  /// after each, so the caller closes it.  Each byte is scanned once, and
  /// the buffer never holds more than one read chunk past the cap.
  bool readLine(std::string& line);

  /// Exactly `n` bytes; false on EOF or a read error.  The caller bounds n.
  bool readExact(std::size_t n, std::string& out);

  /// Bytes held in the buffer, consumed or not (tests watch its bound).
  std::size_t buffered() const { return buffer_.size(); }

 private:
  bool fill();
  void compact();

  int fd_;
  std::string buffer_;
  std::size_t pos_ = 0;      ///< first unconsumed byte
  std::size_t scanned_ = 0;  ///< bytes after pos_ known to hold no '\n'
};

/// Writes all of `data` to socket `fd`, retrying EINTR and short writes.
/// A peer that went away is a false return, never a SIGPIPE.
bool sendAll(int fd, std::string_view data);

/// Splits the next space/tab-separated token off the front of `rest`
/// (empty when none is left).
std::string_view nextToken(std::string_view& rest);

/// Parses a whole unsigned decimal: digits only (no sign, no space, no
/// suffix) and within 64 bits.
bool parseNum(std::string_view s, std::uint64_t* out);

}  // namespace als
