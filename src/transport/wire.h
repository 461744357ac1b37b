// Binary wire format shared by every transport: LEB128 varints and
// length-prefixed, versioned frames. A frame on the wire is
//
//   varint(payload length) | version u8 | type u8 | body
//
// where the length covers version, type, and body. Frame bodies:
//
//   DATA v1  varint seq | varint target op index | encoded item (codec.h)
//   DATA v2  varint seq | varint target | varint flags |
//            varint send tick µs | varint (send tick − ingress tick) |
//            varint queue µs | varint transport µs | encoded item
//   EOS      varint total DATA frames sent (dropped ones included)
//   CREDIT   varint credits granted
//   ERROR    message bytes, raw
//   CONTROL  varint request id | varint verb | verb payload (serve/control.h)
//   ACK      varint request id | varint status code | varint message length |
//            message | verb payload
//   RESULT   varint query id | varint seq | stamp extension (DATA v2 layout,
//            flags..transport µs) | encoded item
//
// Version 2 only exists to carry the measured-latency stamp
// (engine/latency.h): flags bit 0 marks a stamped item, the ingress tick
// is delta-encoded against the send tick, and the encoding is stateless
// per frame so injected duplicates/drops cannot desynchronize it.
// Frames without an extension — EOS, CREDIT, ERROR, and unstamped DATA —
// are still emitted at version 1, byte-identical to the previous wire,
// and a v1-only peer's frames still parse here.
//
// See docs/TRANSPORT.md for the full format table.

#ifndef STREAMSHARE_TRANSPORT_WIRE_H_
#define STREAMSHARE_TRANSPORT_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace streamshare::transport {

/// Base frame layout every peer speaks. Extension-free frames (EOS,
/// CREDIT, ERROR, unstamped DATA) are emitted at this version so a run
/// with stamping off stays byte-identical to the original wire.
inline constexpr uint8_t kBaseWireVersion = 1;

/// Highest version this build emits or parses; a receiver rejects frames
/// whose version it does not speak. Version 2 = DATA frames carrying the
/// latency-stamp extension.
inline constexpr uint8_t kWireVersion = 2;

/// Largest payload a receiver accepts — a corrupted length prefix must
/// not make it allocate gigabytes.
inline constexpr uint64_t kMaxFramePayload = 64ull * 1024 * 1024;

enum class FrameType : uint8_t {
  kData = 1,
  kEos = 2,
  kCredit = 3,
  kError = 4,
  // Service plane (serve/): request/response control channel and the
  // per-query result stream a daemon forwards to attached clients.
  kControl = 5,
  kControlAck = 6,
  kResult = 7,
};

/// Last frame type this build knows how to dispatch. Bytes above this
/// parse as kUnsupported, not kMalformed, so a newer peer's frames can be
/// skipped and answered instead of killing the connection.
inline constexpr uint8_t kMaxKnownFrameType =
    static_cast<uint8_t>(FrameType::kResult);

/// Appends `value` LEB128-encoded (7 bits per byte, high bit = more).
void PutVarint(std::string* out, uint64_t value);

/// Decodes a varint from [*pos, end). Advances *pos past it. False on
/// truncated or over-long (>10 byte) input.
bool GetVarint(const uint8_t** pos, const uint8_t* end, uint64_t* value);

/// Convenience over a string_view cursor: decodes a varint from the front
/// of *data and strips it. False on malformed input.
bool GetVarint(std::string_view* data, uint64_t* value);

/// Appends one whole frame (length prefix, version, type, body).
void AppendFrame(std::string* out, FrameType type, std::string_view body,
                 uint8_t version = kBaseWireVersion);

/// Encodes a frame in place: BeginFrame reserves the header at the end
/// of *out and returns its offset, the caller appends the body, and
/// FinishFrame writes the header. The bytes equal AppendFrame's; a body
/// of 126 bytes or more (a longer length prefix) moves once.
size_t BeginFrame(std::string* out);
void FinishFrame(std::string* out, size_t start, FrameType type,
                 uint8_t version = kBaseWireVersion);

/// One parsed frame; `body` aliases the parse buffer. On kUnsupported,
/// `raw_type` and `version` hold the peer's bytes verbatim (`type` is
/// meaningless) so a receiver can name what it is rejecting.
struct Frame {
  FrameType type = FrameType::kError;
  uint8_t raw_type = 0;
  uint8_t version = kBaseWireVersion;
  std::string_view body;
};

/// Outcome of trying to parse a frame from a byte buffer.
enum class ParseResult {
  kFrame,        // *frame filled, *consumed bytes used
  kNeedMore,     // buffer holds only a frame prefix so far
  kUnsupported,  // well-framed but unknown version or type; *consumed is
                 // set — skip it and answer, the stream is still usable
  kMalformed,    // bad length prefix — the stream is unusable
};

/// Parses the first frame of `buffer`. On kFrame, `frame->body` points
/// into `buffer` and `*consumed` is the total encoded size.
ParseResult ParseFrame(std::string_view buffer, Frame* frame,
                       size_t* consumed);

}  // namespace streamshare::transport

#endif  // STREAMSHARE_TRANSPORT_WIRE_H_
