#include "serve/net.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

namespace streamshare::serve {

namespace {

using Clock = std::chrono::steady_clock;

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::Ok();
}

}  // namespace

FrameConn::FrameConn(int fd, std::string label)
    : fd_(fd), label_(std::move(label)) {}

FrameConn::~FrameConn() { Close(); }

FrameConn::FrameConn(FrameConn&& other) noexcept {
  *this = std::move(other);
}

FrameConn& FrameConn::operator=(FrameConn&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    label_ = std::move(other.label_);
    rx_buffer_ = std::exchange(other.rx_buffer_, std::string());
    rx_head_ = std::exchange(other.rx_head_, 0);
    rx_tail_ = std::exchange(other.rx_tail_, 0);
    tx_buffer_ = std::exchange(other.tx_buffer_, std::string());
    tx_head_ = std::exchange(other.tx_head_, 0);
    bytes_sent_ = other.bytes_sent_;
    bytes_received_ = other.bytes_received_;
  }
  return *this;
}

void FrameConn::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status FrameConn::QueueFrame(transport::FrameType type,
                             std::string_view body, uint8_t version) {
  if (fd_ < 0) return Status::Unavailable(label_ + ": connection closed");
  QueueFrameWith(type, version,
                 [body](std::string* out) { out->append(body); });
  return Status::Ok();
}

Status FrameConn::FlushSome() {
  if (fd_ < 0) return Status::Unavailable(label_ + ": connection closed");
  while (has_pending_output()) {
    // MSG_NOSIGNAL: a vanished peer must surface as a Status, not a
    // process-killing SIGPIPE.
    ssize_t n = ::send(fd_, tx_buffer_.data() + tx_head_,
                       tx_buffer_.size() - tx_head_, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EPIPE || errno == ECONNRESET) {
        return Status::Unavailable(label_ + ": peer closed connection");
      }
      return Errno(label_ + ": send");
    }
    bytes_sent_ += static_cast<uint64_t>(n);
    tx_head_ += static_cast<size_t>(n);
  }
  if (!has_pending_output()) {
    tx_buffer_.clear();
    tx_head_ = 0;
  } else if (tx_head_ > tx_buffer_.size() / 2) {
    tx_buffer_.erase(0, tx_head_);
    tx_head_ = 0;
  }
  return Status::Ok();
}

Status FrameConn::FlushAll(int timeout_ms) {
  Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    SS_RETURN_IF_ERROR(FlushSome());
    if (!has_pending_output()) return Status::Ok();
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) {
      return Status::DeadlineExceeded(label_ + ": flush timed out");
    }
    struct pollfd pfd = {fd_, POLLOUT, 0};
    if (::poll(&pfd, 1, static_cast<int>(left.count())) < 0 &&
        errno != EINTR) {
      return Errno(label_ + ": poll");
    }
  }
}

Status FrameConn::ReadSome() {
  if (fd_ < 0) return Status::Unavailable(label_ + ": connection closed");
  constexpr size_t kMinRoom = 16384;
  while (true) {
    size_t live = rx_tail_ - rx_head_;
    if (live == 0 || rx_head_ > rx_buffer_.size() / 2) {
      std::memmove(rx_buffer_.data(), rx_buffer_.data() + rx_head_, live);
      rx_head_ = 0;
      rx_tail_ = live;
    }
    if (rx_buffer_.size() - rx_tail_ < kMinRoom) {
      rx_buffer_.resize(std::max(2 * rx_buffer_.size(), rx_tail_ + kMinRoom));
    }
    size_t room = rx_buffer_.size() - rx_tail_;
    ssize_t n = ::recv(fd_, rx_buffer_.data() + rx_tail_, room, 0);
    if (n > 0) {
      rx_tail_ += static_cast<size_t>(n);
      bytes_received_ += static_cast<uint64_t>(n);
      if (static_cast<size_t>(n) < room) return Status::Ok();
      continue;
    }
    if (n == 0) {
      return Status::Unavailable(label_ + ": peer closed connection");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::Ok();
    if (errno == ECONNRESET) {
      return Status::Unavailable(label_ + ": connection reset");
    }
    return Errno(label_ + ": recv");
  }
}

Result<ConnEvent> FrameConn::TryParse(transport::Frame* frame) {
  size_t consumed = 0;
  transport::ParseResult parsed = transport::ParseFrame(
      std::string_view(rx_buffer_.data() + rx_head_, rx_tail_ - rx_head_),
      frame, &consumed);
  switch (parsed) {
    case transport::ParseResult::kFrame:
      rx_head_ += consumed;
      return ConnEvent::kFrame;
    case transport::ParseResult::kUnsupported:
      rx_head_ += consumed;
      return ConnEvent::kUnsupported;
    case transport::ParseResult::kNeedMore:
      return ConnEvent::kNeedMore;
    case transport::ParseResult::kMalformed:
      return Status::ParseError(label_ + ": malformed frame");
  }
  return Status::Internal(label_ + ": unreachable parse state");
}

Result<ConnEvent> FrameConn::RecvFrame(transport::Frame* frame,
                                       int timeout_ms) {
  Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    SS_ASSIGN_OR_RETURN(ConnEvent event, TryParse(frame));
    if (event != ConnEvent::kNeedMore) return event;
    int wait_ms = -1;
    if (timeout_ms >= 0) {
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      wait_ms = static_cast<int>(left.count());
      if (wait_ms < 0) wait_ms = 0;
    }
    struct pollfd pfd = {fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, wait_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Errno(label_ + ": poll");
    }
    if (ready == 0) {
      return Status::DeadlineExceeded(label_ + ": recv timed out");
    }
    SS_RETURN_IF_ERROR(ReadSome());
  }
}

Listener::~Listener() { Close(); }

void Listener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Listener::Bind(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    ::close(fd);
    return Errno("bind");
  }
  if (::listen(fd, 16) < 0) {
    ::close(fd);
    return Errno("listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) <
      0) {
    ::close(fd);
    return Errno("getsockname");
  }
  Status nonblock = SetNonBlocking(fd);
  if (!nonblock.ok()) {
    ::close(fd);
    return nonblock;
  }
  fd_ = fd;
  port_ = ntohs(addr.sin_port);
  return Status::Ok();
}

Result<FrameConn> Listener::Accept() {
  struct sockaddr_in addr = {};
  socklen_t len = sizeof(addr);
  int fd = ::accept(fd_, reinterpret_cast<struct sockaddr*>(&addr), &len);
  if (fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::Unavailable("no pending connection");
    }
    return Errno("accept");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  Status nonblock = SetNonBlocking(fd);
  if (!nonblock.ok()) {
    ::close(fd);
    return nonblock;
  }
  return FrameConn(fd, "serve-conn-" + std::to_string(fd));
}

Result<FrameConn> ConnectTcp(const std::string& host, int port,
                             int timeout_ms) {
  DialOptions options;
  options.timeout_ms = timeout_ms;
  return ConnectTcp(host, port, options);
}

Result<FrameConn> ConnectTcp(const std::string& host, int port,
                             const DialOptions& options) {
  Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(options.timeout_ms);
  int backoff_ms = std::max(1, options.initial_backoff_ms);
  while (true) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Errno("socket");
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      ::close(fd);
      return Status::InvalidArgument("bad host address: " + host);
    }
    if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      Status nonblock = SetNonBlocking(fd);
      if (!nonblock.ok()) {
        ::close(fd);
        return nonblock;
      }
      return FrameConn(fd, "serve-client-" + std::to_string(fd));
    }
    int saved = errno;
    ::close(fd);
    if (Clock::now() + std::chrono::milliseconds(backoff_ms) > deadline) {
      return Status::Unavailable("connect to " + host + ":" +
                                 std::to_string(port) + " failed: " +
                                 std::strerror(saved));
    }
    ::poll(nullptr, 0, backoff_ms);
    backoff_ms = std::min(backoff_ms * 2, std::max(1, options.max_backoff_ms));
  }
}

}  // namespace streamshare::serve
