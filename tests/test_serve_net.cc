// FrameConn over a socketpair: queued frames wait for a flush, partial
// sends through a tiny send buffer keep order and content, one receive
// holding hundreds of frames parses them all, split and malformed input
// behave, in-place frames are byte-identical to AppendFrame, and a moved
// connection keeps its pending output.

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "serve/net.h"
#include "transport/wire.h"

namespace streamshare::serve {
namespace {

using transport::Frame;
using transport::FrameType;

struct ConnPair {
  FrameConn sender;
  FrameConn receiver;
};

ConnPair MakePair() {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  for (int fd : fds) {
    EXPECT_EQ(::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK), 0);
  }
  return {FrameConn(fds[0], "sender"), FrameConn(fds[1], "receiver")};
}

/// Frame i's body: its index, padded so lengths vary across the
/// one-byte/two-byte length-prefix boundary (126 bytes).
std::string Body(int i) {
  std::string body = "frame-" + std::to_string(i) + ":";
  body.append(static_cast<size_t>(i % 300), static_cast<char>('a' + i % 26));
  return body;
}

/// Parses every complete frame the receiver holds, checking each against
/// the next expected index.
void ParseAll(FrameConn* receiver, int* next) {
  while (true) {
    Frame frame;
    Result<ConnEvent> event = receiver->TryParse(&frame);
    ASSERT_TRUE(event.ok()) << event.status();
    if (*event == ConnEvent::kNeedMore) return;
    ASSERT_EQ(*event, ConnEvent::kFrame);
    ASSERT_EQ(frame.type, FrameType::kResult);
    ASSERT_EQ(frame.body, Body(*next)) << "frame " << *next;
    ++*next;
  }
}

TEST(FrameConn, QueueSendsNothingUntilFlushed) {
  ConnPair pair = MakePair();
  ASSERT_TRUE(pair.sender.QueueFrame(FrameType::kControl, "one").ok());
  pair.sender.QueueFrameWith(FrameType::kControlAck,
                             transport::kBaseWireVersion,
                             [](std::string* out) { out->append("two"); });
  EXPECT_TRUE(pair.sender.has_pending_output());
  EXPECT_EQ(pair.sender.bytes_sent(), 0u);
  ASSERT_TRUE(pair.receiver.ReadSome().ok());
  EXPECT_EQ(pair.receiver.bytes_received(), 0u);
  Frame frame;
  EXPECT_EQ(*pair.receiver.TryParse(&frame), ConnEvent::kNeedMore);

  ASSERT_TRUE(pair.sender.FlushSome().ok());
  EXPECT_FALSE(pair.sender.has_pending_output());
  ASSERT_TRUE(pair.receiver.ReadSome().ok());
  EXPECT_EQ(pair.receiver.bytes_received(), pair.sender.bytes_sent());
  ASSERT_EQ(*pair.receiver.TryParse(&frame), ConnEvent::kFrame);
  EXPECT_EQ(frame.type, FrameType::kControl);
  EXPECT_EQ(frame.body, "one");
  ASSERT_EQ(*pair.receiver.TryParse(&frame), ConnEvent::kFrame);
  EXPECT_EQ(frame.type, FrameType::kControlAck);
  EXPECT_EQ(frame.body, "two");
  EXPECT_EQ(*pair.receiver.TryParse(&frame), ConnEvent::kNeedMore);
}

TEST(FrameConn, TenThousandFramesSurviveATinySendBuffer) {
  ConnPair pair = MakePair();
  int sndbuf = 4096;
  ASSERT_EQ(::setsockopt(pair.sender.fd(), SOL_SOCKET, SO_SNDBUF, &sndbuf,
                         sizeof(sndbuf)),
            0);
  constexpr int kFrames = 10000;
  std::string expected;
  int next = 0;
  bool partial_send = false;
  // Queue while flushing, so flushes stop part-way through the buffer
  // and later frames land behind a live head offset.
  for (int i = 0; i < kFrames; ++i) {
    std::string body = Body(i);
    transport::AppendFrame(&expected, FrameType::kResult, body,
                           transport::kWireVersion);
    pair.sender.QueueFrameWith(
        FrameType::kResult, transport::kWireVersion,
        [&body](std::string* out) { out->append(body); });
    if (i % 37 == 36) {
      ASSERT_TRUE(pair.sender.FlushSome().ok());
      partial_send |= pair.sender.has_pending_output();
      ASSERT_TRUE(pair.receiver.ReadSome().ok());
      ASSERT_NO_FATAL_FAILURE(ParseAll(&pair.receiver, &next));
    }
  }
  for (int spins = 0; next < kFrames && spins < 100000; ++spins) {
    ASSERT_TRUE(pair.sender.FlushSome().ok());
    ASSERT_TRUE(pair.receiver.ReadSome().ok());
    ASSERT_NO_FATAL_FAILURE(ParseAll(&pair.receiver, &next));
  }
  EXPECT_TRUE(partial_send) << "the send buffer never filled up";
  EXPECT_EQ(next, kFrames);
  EXPECT_FALSE(pair.sender.has_pending_output());
  EXPECT_EQ(pair.sender.bytes_sent(), expected.size());
  EXPECT_EQ(pair.receiver.bytes_received(), expected.size());
}

TEST(FrameConn, OneReadParsesHundredsOfFrames) {
  ConnPair pair = MakePair();
  constexpr int kFrames = 500;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(
        pair.sender.QueueFrame(FrameType::kResult, Body(i % 50)).ok());
  }
  ASSERT_TRUE(pair.sender.FlushAll(2000).ok());
  ASSERT_TRUE(pair.receiver.ReadSome().ok());
  EXPECT_EQ(pair.receiver.bytes_received(), pair.sender.bytes_sent());
  std::vector<std::string_view> bodies;
  while (true) {
    Frame frame;
    Result<ConnEvent> event = pair.receiver.TryParse(&frame);
    ASSERT_TRUE(event.ok()) << event.status();
    if (*event == ConnEvent::kNeedMore) break;
    ASSERT_EQ(frame.body, Body(static_cast<int>(bodies.size()) % 50));
    bodies.push_back(frame.body);
  }
  ASSERT_EQ(bodies.size(), static_cast<size_t>(kFrames));
  // Parsing never moves buffered bytes: every body is still intact.
  for (size_t i = 0; i < bodies.size(); ++i) {
    EXPECT_EQ(bodies[i], Body(static_cast<int>(i) % 50)) << "frame " << i;
  }
}

TEST(FrameConn, SplitFrameNeedsMore) {
  ConnPair pair = MakePair();
  std::string wire;
  transport::AppendFrame(&wire, FrameType::kResult, Body(200));
  size_t half = wire.size() / 2;
  ASSERT_EQ(::send(pair.sender.fd(), wire.data(), half, 0),
            static_cast<ssize_t>(half));
  ASSERT_TRUE(pair.receiver.ReadSome().ok());
  Frame frame;
  EXPECT_EQ(*pair.receiver.TryParse(&frame), ConnEvent::kNeedMore);
  ASSERT_EQ(::send(pair.sender.fd(), wire.data() + half, wire.size() - half,
                   0),
            static_cast<ssize_t>(wire.size() - half));
  ASSERT_TRUE(pair.receiver.ReadSome().ok());
  ASSERT_EQ(*pair.receiver.TryParse(&frame), ConnEvent::kFrame);
  EXPECT_EQ(frame.body, Body(200));
  EXPECT_EQ(*pair.receiver.TryParse(&frame), ConnEvent::kNeedMore);
}

TEST(FrameConn, MalformedInputErrors) {
  for (const std::string& garbage :
       {std::string(12, '\xff'), std::string("\x01\x01\x05", 3)}) {
    ConnPair pair = MakePair();
    ASSERT_EQ(::send(pair.sender.fd(), garbage.data(), garbage.size(), 0),
              static_cast<ssize_t>(garbage.size()));
    ASSERT_TRUE(pair.receiver.ReadSome().ok());
    Frame frame;
    Result<ConnEvent> event = pair.receiver.TryParse(&frame);
    EXPECT_TRUE(event.status().IsParseError()) << event.status();
  }
}

TEST(FrameConn, InPlaceFramesMatchAppendFrame) {
  ConnPair pair = MakePair();
  std::string expected;
  for (size_t size : {0, 1, 125, 126, 127, 16383, 16384, 70000}) {
    std::string body(size, 'x');
    transport::AppendFrame(&expected, FrameType::kResult, body,
                           transport::kWireVersion);
    pair.sender.QueueFrameWith(
        FrameType::kResult, transport::kWireVersion,
        [&body](std::string* out) { out->append(body); });
  }
  ASSERT_TRUE(pair.sender.FlushSome().ok());
  std::string wire;
  for (int spins = 0; wire.size() < expected.size() && spins < 100000;
       ++spins) {
    if (pair.sender.has_pending_output()) {
      ASSERT_TRUE(pair.sender.FlushSome().ok());
    }
    char chunk[8192];
    ssize_t n = ::recv(pair.receiver.fd(), chunk, sizeof(chunk), 0);
    if (n > 0) wire.append(chunk, static_cast<size_t>(n));
  }
  EXPECT_EQ(wire, expected);
}

TEST(FrameConn, MovedConnectionKeepsPendingOutput) {
  ConnPair pair = MakePair();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(pair.sender.QueueFrame(FrameType::kResult, Body(i)).ok());
  }
  FrameConn moved(std::move(pair.sender));
  EXPECT_FALSE(pair.sender.open());
  EXPECT_FALSE(pair.sender.has_pending_output());
  EXPECT_TRUE(moved.has_pending_output());
  FrameConn assigned;
  assigned = std::move(moved);
  EXPECT_FALSE(moved.has_pending_output());
  ASSERT_TRUE(assigned.has_pending_output());
  ASSERT_TRUE(assigned.QueueFrame(FrameType::kResult, Body(3)).ok());
  ASSERT_TRUE(assigned.FlushAll(2000).ok());
  ASSERT_TRUE(pair.receiver.ReadSome().ok());
  int next = 0;
  ASSERT_NO_FATAL_FAILURE(ParseAll(&pair.receiver, &next));
  EXPECT_EQ(next, 4);
}

}  // namespace
}  // namespace streamshare::serve
