#include "transport/wire.h"

namespace streamshare::transport {

void PutVarint(std::string* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

bool GetVarint(const uint8_t** pos, const uint8_t* end, uint64_t* value) {
  uint64_t result = 0;
  int shift = 0;
  const uint8_t* p = *pos;
  while (p < end && shift < 64) {
    uint8_t byte = *p++;
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *pos = p;
      *value = result;
      return true;
    }
    shift += 7;
  }
  return false;  // truncated, or continuation bits past 64 bits
}

bool GetVarint(std::string_view* data, uint64_t* value) {
  const uint8_t* pos = reinterpret_cast<const uint8_t*>(data->data());
  const uint8_t* end = pos + data->size();
  if (!GetVarint(&pos, end, value)) return false;
  data->remove_prefix(
      static_cast<size_t>(pos -
                          reinterpret_cast<const uint8_t*>(data->data())));
  return true;
}

void AppendFrame(std::string* out, FrameType type, std::string_view body,
                 uint8_t version) {
  PutVarint(out, body.size() + 2);  // version + type
  out->push_back(static_cast<char>(version));
  out->push_back(static_cast<char>(type));
  out->append(body);
}

size_t BeginFrame(std::string* out) {
  size_t start = out->size();
  out->append(3, '\0');  // one-byte length prefix, version, type
  return start;
}

void FinishFrame(std::string* out, size_t start, FrameType type,
                 uint8_t version) {
  std::string prefix;
  PutVarint(&prefix, out->size() - start - 1);  // version + type + body
  if (prefix.size() > 1) out->insert(start + 1, prefix.size() - 1, '\0');
  out->replace(start, prefix.size(), prefix);
  (*out)[start + prefix.size()] = static_cast<char>(version);
  (*out)[start + prefix.size() + 1] = static_cast<char>(type);
}

ParseResult ParseFrame(std::string_view buffer, Frame* frame,
                       size_t* consumed) {
  std::string_view rest = buffer;
  uint64_t length = 0;
  if (!GetVarint(&rest, &length)) {
    // A varint never needs more than 10 bytes; more without termination
    // means garbage, not a short read.
    return buffer.size() >= 10 ? ParseResult::kMalformed
                               : ParseResult::kNeedMore;
  }
  if (length < 2 || length > kMaxFramePayload + 2) {
    return ParseResult::kMalformed;
  }
  if (rest.size() < length) return ParseResult::kNeedMore;
  uint8_t version = static_cast<uint8_t>(rest[0]);
  uint8_t type = static_cast<uint8_t>(rest[1]);
  frame->raw_type = type;
  frame->version = version;
  frame->body = rest.substr(2, length - 2);
  *consumed = (buffer.size() - rest.size()) + length;
  // The length prefix framed this correctly, so an unknown version or
  // type is a vocabulary mismatch, not corruption: report it skippable
  // and let the receiver answer with a decodable error.
  if (version < kBaseWireVersion || version > kWireVersion ||
      type < static_cast<uint8_t>(FrameType::kData) ||
      type > kMaxKnownFrameType) {
    return ParseResult::kUnsupported;
  }
  frame->type = static_cast<FrameType>(type);
  return ParseResult::kFrame;
}

}  // namespace streamshare::transport
