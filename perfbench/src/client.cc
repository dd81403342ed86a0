#include "client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <strings.h>

namespace perfbench {
namespace {

double MillisSince(Clock::time_point origin) {
  return std::chrono::duration<double, std::milli>(Clock::now() - origin)
      .count();
}

// Case-insensitive lookup of one header's value inside a response head.
std::string_view HeaderValue(std::string_view head, std::string_view key) {
  size_t pos = head.find("\r\n");
  while (pos != std::string_view::npos && pos + 2 < head.size()) {
    const size_t start = pos + 2;
    size_t eol = head.find("\r\n", start);
    if (eol == std::string_view::npos) eol = head.size();
    const std::string_view line = head.substr(start, eol - start);
    const size_t colon = line.find(':');
    if (colon == key.size() &&
        strncasecmp(line.data(), key.data(), key.size()) == 0) {
      std::string_view v = line.substr(colon + 1);
      while (!v.empty() && v.front() == ' ') v.remove_prefix(1);
      return v;
    }
    pos = eol == head.size() ? std::string_view::npos : eol;
  }
  return {};
}

}  // namespace

void MeteredClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buf_.clear();
}

amber::Status MeteredClient::Connect() {
  if (fd_ >= 0) return amber::Status::OK();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return amber::Status::IOError("socket(): " + std::string(strerror(errno)));
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  timeval tv{};
  tv.tv_sec = 30;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string err = strerror(errno);
    ::close(fd);
    return amber::Status::IOError("connect(): " + err);
  }
  fd_ = fd;
  return amber::Status::OK();
}

bool MeteredClient::Fill(Exchange* ex, Clock::time_point origin) {
  char chunk[64 << 10];
  while (true) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n > 0) {
      if (ex->wire_bytes == 0) ex->ttfb_ms = MillisSince(origin);
      ex->wire_bytes += static_cast<uint64_t>(n);
      buf_.append(chunk, static_cast<size_t>(n));
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    peer_closed_ = n == 0;
    return false;
  }
}

amber::Result<Exchange> MeteredClient::ReadResponse(Clock::time_point origin,
                                                    bool keep_body, bool* stale) {
  Exchange ex;
  size_t head_end;
  while ((head_end = buf_.find("\r\n\r\n")) == std::string::npos) {
    if (!Fill(&ex, origin)) {
      *stale = peer_closed_ && ex.wire_bytes == 0;
      return amber::Status::IOError("no response head");
    }
  }
  const std::string head = buf_.substr(0, head_end);
  buf_.erase(0, head_end + 4);
  if (head.size() < 12 || head.compare(0, 5, "HTTP/") != 0) {
    return amber::Status::IOError("malformed status line");
  }
  ex.status = std::atoi(head.c_str() + 9);

  const std::string_view te = HeaderValue(head, "Transfer-Encoding");
  if (te.find("chunked") != std::string_view::npos) {
    ex.complete = false;
    while (true) {
      size_t crlf;
      while ((crlf = buf_.find("\r\n")) == std::string::npos) {
        if (!Fill(&ex, origin)) return amber::Status::IOError("truncated chunk");
      }
      uint64_t size = 0;
      const auto [p, ec] =
          std::from_chars(buf_.data(), buf_.data() + crlf, size, 16);
      if (ec != std::errc() || p != buf_.data() + crlf) {
        return amber::Status::IOError("malformed chunk size");
      }
      while (buf_.size() < crlf + 2 + size + 2) {
        if (!Fill(&ex, origin)) return amber::Status::IOError("truncated chunk");
      }
      if (!keep_body && size != 0) ex.body.clear();
      ex.body.append(buf_, crlf + 2, size);
      ex.body_bytes += size;
      buf_.erase(0, crlf + 2 + size + 2);
      if (size == 0) {
        ex.complete = true;
        break;
      }
    }
  } else {
    const std::string_view cl = HeaderValue(head, "Content-Length");
    uint64_t length = 0;
    const auto [p, ec] = std::from_chars(cl.data(), cl.data() + cl.size(), length);
    if (cl.empty() || ec != std::errc() || p != cl.data() + cl.size()) {
      return amber::Status::IOError("response without Content-Length");
    }
    while (buf_.size() < length) {
      if (!Fill(&ex, origin)) return amber::Status::IOError("truncated body");
    }
    ex.body = buf_.substr(0, length);
    ex.body_bytes = length;
    buf_.erase(0, length);
  }
  ex.total_ms = MillisSince(origin);
  if (HeaderValue(head, "Connection") == "close") Close();
  return ex;
}

amber::Result<Exchange> MeteredClient::Post(const std::string& path,
                                            std::string_view body,
                                            Clock::time_point origin,
                                            bool keep_body) {
  std::string request = "POST " + path +
                        " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                        "Content-Type: application/json\r\nContent-Length: " +
                        std::to_string(body.size()) +
                        "\r\nConnection: keep-alive\r\n\r\n";
  request.append(body);
  for (int attempt = 0; attempt < 2; ++attempt) {
    const bool reused = fd_ >= 0;
    AMBER_RETURN_IF_ERROR(Connect());
    size_t off = 0;
    bool sent = true;
    while (off < request.size()) {
      const ssize_t n = ::send(fd_, request.data() + off, request.size() - off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<size_t>(n);
      } else if (!(n < 0 && errno == EINTR)) {
        sent = false;
        break;
      }
    }
    bool stale = false;
    amber::Result<Exchange> ex =
        sent ? ReadResponse(origin, keep_body, &stale)
             : amber::Result<Exchange>(amber::Status::IOError("send failed"));
    if (ex.ok()) {
      bytes_read_ += ex->wire_bytes;
      ++responses_;
      return ex;
    }
    Close();
    // Only an idle keep-alive socket the server closed before answering
    // is safe to retry.
    if (!reused || !stale) return ex;
  }
  return amber::Status::IOError("reconnect failed");
}

}  // namespace perfbench
