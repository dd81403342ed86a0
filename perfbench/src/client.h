// A metered HTTP/1.1 client for the benchmark's load generators.
//
// The repository's HttpClient decodes responses but hides the two things
// the benchmark measures at the socket: when the first response byte
// arrived, and how many bytes the client read (status line, headers and
// chunk framing included — the figure the server's `bytes_written`
// counter must match). This client speaks the same subset (keep-alive,
// Content-Length and chunked bodies) and reports both per exchange.

#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One request/response exchange.
struct Exchange {
  int status = 0;
  /// The decoded body (chunked framing removed); see Post's `keep_body`.
  std::string body;
  uint64_t body_bytes = 0;
  /// Every byte read from the socket for this response.
  uint64_t wire_bytes = 0;
  /// Milliseconds from `origin` (see Post) to the first response byte and
  /// to the last one. On /query/stream the first byte carries the first
  /// page: the server sends its head together with the first page.
  double ttfb_ms = 0;
  double total_ms = 0;
  /// Chunked bodies: the 0-chunk terminator arrived.
  bool complete = true;
};

/// \brief Blocking loopback client; one per thread.
class MeteredClient {
 public:
  explicit MeteredClient(uint16_t port) : port_(port) {}
  ~MeteredClient() { Close(); }

  MeteredClient(const MeteredClient&) = delete;
  MeteredClient& operator=(const MeteredClient&) = delete;

  /// POSTs `body` to `path`. Times are measured from `origin` (the
  /// request's due time in an open loop, the send time otherwise). A
  /// chunked body is kept whole only with `keep_body`; otherwise
  /// Exchange::body holds its last chunk (a stream's summary line), which
  /// spares the timed loops a copy of every large answer. A kept-alive
  /// socket the server closed while idle is reopened once.
  amber::Result<Exchange> Post(const std::string& path, std::string_view body,
                               Clock::time_point origin, bool keep_body);
  amber::Result<Exchange> Post(const std::string& path,
                               std::string_view body) {
    return Post(path, body, Clock::now(), true);
  }

  void Close();

  /// Bytes read and responses received over this client's lifetime.
  uint64_t bytes_read() const { return bytes_read_; }
  uint64_t responses() const { return responses_; }

 private:
  amber::Status Connect();
  /// Reads one response. `stale` reports a socket the server had closed
  /// before any response byte arrived (an idle keep-alive timeout).
  amber::Result<Exchange> ReadResponse(Clock::time_point origin,
                                       bool keep_body, bool* stale);
  /// Appends the next recv() to buf_; false on EOF or error.
  bool Fill(Exchange* ex, Clock::time_point origin);

  uint16_t port_;
  int fd_ = -1;
  bool peer_closed_ = false;  // the last failed recv() read EOF
  std::string buf_;
  uint64_t bytes_read_ = 0;
  uint64_t responses_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
