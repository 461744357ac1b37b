// Minimal socket plumbing for the service plane: a localhost TCP
// listener and a buffered frame connection speaking the wire format of
// transport/wire.h. Unlike the data-plane TcpPipeEnd, a FrameConn
// tolerates kUnsupported frames (it surfaces them to the caller so the
// daemon can answer "unsupported" instead of dropping the connection)
// and separates buffered non-blocking sends (the daemon's event loop
// must never block on a slow client) from blocking receives (the
// client's request/response calls).
//
// Sends are batch-shaped: queueing a frame only appends it to the send
// buffer, and the owner flushes once per batch (the daemon once per loop
// iteration), so a burst of frames leaves in as few send() calls as the
// socket accepts. Both buffers are consumed through a head offset and
// compacted only once the head passes half the buffer, so consuming a
// frame never moves the bytes behind it.

#ifndef STREAMSHARE_SERVE_NET_H_
#define STREAMSHARE_SERVE_NET_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "transport/wire.h"

namespace streamshare::serve {

/// What FrameConn::TryParse produced.
enum class ConnEvent {
  kFrame,        // a dispatchable frame
  kUnsupported,  // well-framed but unknown version/type — answer it
  kNeedMore,     // read more bytes first
};

/// One TCP connection carrying wire frames. Owns the fd.
class FrameConn {
 public:
  FrameConn() = default;
  explicit FrameConn(int fd, std::string label);
  ~FrameConn();
  FrameConn(FrameConn&& other) noexcept;
  FrameConn& operator=(FrameConn&& other) noexcept;
  FrameConn(const FrameConn&) = delete;
  FrameConn& operator=(const FrameConn&) = delete;

  bool open() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  const std::string& label() const { return label_; }

  /// Appends one frame to the send buffer. Nothing is sent until
  /// FlushSome or FlushAll. Unavailable once the connection is closed.
  Status QueueFrame(transport::FrameType type, std::string_view body,
                    uint8_t version = transport::kBaseWireVersion);

  /// Appends one frame whose body `write_body(std::string*)` appends
  /// straight into the send buffer, with no intermediate body string.
  /// Like QueueFrame, it sends nothing.
  template <typename WriteBody>
  void QueueFrameWith(transport::FrameType type, uint8_t version,
                      WriteBody&& write_body) {
    size_t start = transport::BeginFrame(&tx_buffer_);
    write_body(&tx_buffer_);
    transport::FinishFrame(&tx_buffer_, start, type, version);
  }

  /// Writes as much buffered output as the socket accepts right now.
  Status FlushSome();
  /// Blocks until the send buffer is empty (or `timeout_ms` passes).
  Status FlushAll(int timeout_ms);
  bool has_pending_output() const { return tx_head_ < tx_buffer_.size(); }

  /// Receives what the socket holds straight into the tail of the parse
  /// buffer. Returns Unavailable on orderly peer close (EOF), Ok when
  /// bytes were read or the read would block.
  Status ReadSome();

  /// Parses the next frame out of the receive buffer. On kFrame and
  /// kUnsupported, `frame` is filled and the bytes consumed; its body
  /// aliases the receive buffer and stays valid until the next ReadSome
  /// or RecvFrame call (parsing never moves buffered bytes).
  Result<ConnEvent> TryParse(transport::Frame* frame);

  /// Blocking receive of the next frame (kUnsupported surfaces as a
  /// kUnsupported ConnEvent too). Used by the client.
  Result<ConnEvent> RecvFrame(transport::Frame* frame, int timeout_ms);

  void Close();

  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t bytes_received() const { return bytes_received_; }

 private:
  int fd_ = -1;
  std::string label_;
  /// Received bytes not yet parsed are [rx_head_, rx_tail_); the rest of
  /// rx_buffer_ is room for the next receive.
  std::string rx_buffer_;
  size_t rx_head_ = 0;
  size_t rx_tail_ = 0;
  /// Queued bytes not yet sent are [tx_head_, tx_buffer_.size()).
  std::string tx_buffer_;
  size_t tx_head_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t bytes_received_ = 0;
};

/// Listening localhost socket. Port 0 binds an ephemeral port.
class Listener {
 public:
  Listener() = default;
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  Status Bind(int port);
  /// Accepts one pending connection (non-blocking; call after poll).
  Result<FrameConn> Accept();
  int fd() const { return fd_; }
  int port() const { return port_; }
  void Close();

 private:
  int fd_ = -1;
  int port_ = 0;
};

/// Dial tuning for ConnectTcp. The connect loop retries with doubling
/// sleeps from initial_backoff_ms capped at max_backoff_ms until
/// timeout_ms expires.
struct DialOptions {
  int timeout_ms = 5000;
  int initial_backoff_ms = 5;
  int max_backoff_ms = 200;
};

/// Blocking localhost connect with retries (the daemon may still be
/// binding when a client starts).
Result<FrameConn> ConnectTcp(const std::string& host, int port,
                             const DialOptions& options);
Result<FrameConn> ConnectTcp(const std::string& host, int port,
                             int timeout_ms);

}  // namespace streamshare::serve

#endif  // STREAMSHARE_SERVE_NET_H_
