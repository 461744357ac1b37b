#include "serve/control.h"

#include <bit>

#include "transport/wire.h"

namespace streamshare::serve {

namespace {

using transport::GetVarint;
using transport::PutVarint;

// Signed fields (ids that may be -1) travel zigzag-encoded.
uint64_t Zig(int64_t value) {
  return (static_cast<uint64_t>(value) << 1) ^
         static_cast<uint64_t>(value >> 63);
}

int64_t Unzig(uint64_t value) {
  return static_cast<int64_t>((value >> 1) ^ (~(value & 1) + 1));
}

void PutString(std::string* out, std::string_view text) {
  PutVarint(out, text.size());
  out->append(text);
}

bool GetString(std::string_view* data, std::string* out) {
  uint64_t length = 0;
  if (!GetVarint(data, &length) || data->size() < length) return false;
  out->assign(data->substr(0, length));
  data->remove_prefix(length);
  return true;
}

bool GetSigned(std::string_view* data, int64_t* out) {
  uint64_t raw = 0;
  if (!GetVarint(data, &raw)) return false;
  *out = Unzig(raw);
  return true;
}

Status Truncated(const char* what) {
  return Status::ParseError(std::string("truncated ") + what);
}

}  // namespace

std::string EncodeRequest(const ControlRequest& request) {
  std::string out;
  PutVarint(&out, request.request_id);
  PutVarint(&out, static_cast<uint64_t>(request.verb));
  switch (request.verb) {
    case Verb::kHello:
      PutVarint(&out, request.protocol);
      PutString(&out, request.client_name);
      break;
    case Verb::kSubscribe:
      PutVarint(&out, Zig(request.vq));
      PutVarint(&out, request.strategy);
      PutVarint(&out, request.attach_query_plus1);
      PutVarint(&out, request.resume_from);
      PutString(&out, request.query_text);
      break;
    case Verb::kUnsubscribe:
      PutVarint(&out, Zig(request.query_id));
      break;
    case Verb::kFailPeer:
      PutVarint(&out, Zig(request.peer));
      break;
    case Verb::kCutLink:
      PutVarint(&out, Zig(request.link_a));
      PutVarint(&out, Zig(request.link_b));
      break;
    case Verb::kFeed:
      PutVarint(&out, request.feed_items);
      break;
    case Verb::kDrain:
      PutVarint(&out, request.final_drain ? 1 : 0);
      break;
    case Verb::kSubscribeBatch:
      PutVarint(&out, request.batch.size());
      for (const ControlRequest::BatchEntry& entry : request.batch) {
        PutVarint(&out, Zig(entry.vq));
        PutVarint(&out, entry.strategy);
        PutString(&out, entry.query_text);
      }
      break;
    case Verb::kReoptimize:
      PutVarint(&out, Zig(request.max_migrations));
      break;
    case Verb::kStats:
    case Verb::kDetach:
      break;
  }
  return out;
}

Result<ControlRequest> DecodeRequest(std::string_view body) {
  ControlRequest request;
  uint64_t verb = 0;
  if (!GetVarint(&body, &request.request_id) || !GetVarint(&body, &verb)) {
    return Truncated("control request header");
  }
  if (verb < static_cast<uint64_t>(Verb::kHello) ||
      verb > static_cast<uint64_t>(Verb::kReoptimize)) {
    return Status::Unsupported("unknown control verb " +
                               std::to_string(verb));
  }
  request.verb = static_cast<Verb>(verb);
  uint64_t flag = 0;
  switch (request.verb) {
    case Verb::kHello:
      if (!GetVarint(&body, &request.protocol) ||
          !GetString(&body, &request.client_name)) {
        return Truncated("hello request");
      }
      break;
    case Verb::kSubscribe: {
      uint64_t strategy = 0;
      if (!GetSigned(&body, &request.vq) ||
          !GetVarint(&body, &strategy) ||
          !GetVarint(&body, &request.attach_query_plus1) ||
          !GetVarint(&body, &request.resume_from) ||
          !GetString(&body, &request.query_text)) {
        return Truncated("subscribe request");
      }
      if (strategy > 2) {
        return Status::InvalidArgument("unknown strategy " +
                                       std::to_string(strategy));
      }
      request.strategy = static_cast<uint8_t>(strategy);
      break;
    }
    case Verb::kUnsubscribe:
      if (!GetSigned(&body, &request.query_id)) {
        return Truncated("unsubscribe request");
      }
      break;
    case Verb::kFailPeer:
      if (!GetSigned(&body, &request.peer)) {
        return Truncated("fail-peer request");
      }
      break;
    case Verb::kCutLink:
      if (!GetSigned(&body, &request.link_a) ||
          !GetSigned(&body, &request.link_b)) {
        return Truncated("cut-link request");
      }
      break;
    case Verb::kFeed:
      if (!GetVarint(&body, &request.feed_items)) {
        return Truncated("feed request");
      }
      break;
    case Verb::kDrain:
      if (!GetVarint(&body, &flag)) return Truncated("drain request");
      request.final_drain = flag != 0;
      break;
    case Verb::kSubscribeBatch: {
      uint64_t count = 0;
      if (!GetVarint(&body, &count)) {
        return Truncated("subscribe-batch request");
      }
      request.batch.reserve(count);
      for (uint64_t i = 0; i < count; ++i) {
        ControlRequest::BatchEntry entry;
        uint64_t strategy = 0;
        if (!GetSigned(&body, &entry.vq) ||
            !GetVarint(&body, &strategy) ||
            !GetString(&body, &entry.query_text)) {
          return Truncated("subscribe-batch entry");
        }
        if (strategy > 2) {
          return Status::InvalidArgument("unknown strategy " +
                                         std::to_string(strategy));
        }
        entry.strategy = static_cast<uint8_t>(strategy);
        request.batch.push_back(std::move(entry));
      }
      break;
    }
    case Verb::kReoptimize:
      if (!GetSigned(&body, &request.max_migrations)) {
        return Truncated("reoptimize request");
      }
      break;
    case Verb::kStats:
    case Verb::kDetach:
      break;
  }
  if (!body.empty()) {
    return Status::ParseError("trailing bytes after control request");
  }
  return request;
}

std::string EncodeResponse(const ControlResponse& response) {
  std::string out;
  PutVarint(&out, response.request_id);
  PutVarint(&out, response.code);
  PutString(&out, response.message);
  out.append(response.payload);
  return out;
}

Result<ControlResponse> DecodeResponse(std::string_view body) {
  ControlResponse response;
  if (!GetVarint(&body, &response.request_id) ||
      !GetVarint(&body, &response.code) ||
      !GetString(&body, &response.message)) {
    return Truncated("control response");
  }
  response.payload.assign(body);
  return response;
}

Status ResponseStatus(const ControlResponse& response) {
  if (response.code == 0) return Status::Ok();
  // A code outside this build's StatusCode range (newer peer) degrades
  // to kInternal rather than a bogus enum value.
  uint64_t code = response.code;
  if (code > static_cast<uint64_t>(StatusCode::kUnavailable)) {
    code = static_cast<uint64_t>(StatusCode::kInternal);
  }
  return Status(static_cast<StatusCode>(code), response.message);
}

std::string EncodeHelloReply(const HelloReply& reply) {
  std::string out;
  PutVarint(&out, reply.protocol);
  PutVarint(&out, reply.epoch);
  PutVarint(&out, reply.items_fed);
  PutVarint(&out, reply.draining ? 1 : 0);
  return out;
}

Result<HelloReply> DecodeHelloReply(std::string_view payload) {
  HelloReply reply;
  uint64_t draining = 0;
  if (!GetVarint(&payload, &reply.protocol) ||
      !GetVarint(&payload, &reply.epoch) ||
      !GetVarint(&payload, &reply.items_fed) ||
      !GetVarint(&payload, &draining)) {
    return Truncated("hello reply");
  }
  reply.draining = draining != 0;
  return reply;
}

std::string EncodeSubscribeReply(const SubscribeReply& reply) {
  std::string out;
  PutVarint(&out, Zig(reply.query_id));
  PutVarint(&out, reply.accepted ? 1 : 0);
  PutVarint(&out, reply.forward_from);
  PutString(&out, reply.reject_reason);
  return out;
}

Result<SubscribeReply> DecodeSubscribeReply(std::string_view payload) {
  SubscribeReply reply;
  uint64_t accepted = 0;
  if (!GetSigned(&payload, &reply.query_id) ||
      !GetVarint(&payload, &accepted) ||
      !GetVarint(&payload, &reply.forward_from) ||
      !GetString(&payload, &reply.reject_reason)) {
    return Truncated("subscribe reply");
  }
  reply.accepted = accepted != 0;
  return reply;
}

std::string EncodeFeedReply(const FeedReply& reply) {
  std::string out;
  PutVarint(&out, reply.items_fed);
  return out;
}

Result<FeedReply> DecodeFeedReply(std::string_view payload) {
  FeedReply reply;
  if (!GetVarint(&payload, &reply.items_fed)) {
    return Truncated("feed reply");
  }
  return reply;
}

std::string EncodeRecoveryReply(const RecoveryReply& reply) {
  std::string out;
  PutVarint(&out, reply.replans);
  PutVarint(&out, reply.lost_queries);
  PutVarint(&out, reply.dead_targets);
  PutVarint(&out, reply.lost_windows);
  return out;
}

Result<RecoveryReply> DecodeRecoveryReply(std::string_view payload) {
  RecoveryReply reply;
  if (!GetVarint(&payload, &reply.replans) ||
      !GetVarint(&payload, &reply.lost_queries) ||
      !GetVarint(&payload, &reply.dead_targets) ||
      !GetVarint(&payload, &reply.lost_windows)) {
    return Truncated("recovery reply");
  }
  return reply;
}

std::string EncodeDrainReply(const DrainReply& reply) {
  std::string out;
  PutVarint(&out, reply.final_drain ? 1 : 0);
  PutVarint(&out, reply.epoch);
  return out;
}

Result<DrainReply> DecodeDrainReply(std::string_view payload) {
  DrainReply reply;
  uint64_t final_drain = 0;
  if (!GetVarint(&payload, &final_drain) ||
      !GetVarint(&payload, &reply.epoch)) {
    return Truncated("drain reply");
  }
  reply.final_drain = final_drain != 0;
  return reply;
}

std::string EncodeStatsReply(const StatsReply& reply) {
  std::string out;
  PutVarint(&out, reply.epoch);
  PutVarint(&out, reply.draining ? 1 : 0);
  PutVarint(&out, reply.items_fed);
  PutVarint(&out, reply.attached_clients);
  PutVarint(&out, reply.admitted);
  PutVarint(&out, reply.rejected);
  PutVarint(&out, reply.results_forwarded);
  PutVarint(&out, reply.wal_appends);
  PutVarint(&out, reply.wal_bytes);
  PutVarint(&out, reply.wal_fsync_us);
  PutVarint(&out, reply.wal_compactions);
  PutVarint(&out, reply.wal_recovered_records);
  PutVarint(&out, reply.wal_torn_tail_truncations);
  PutVarint(&out, reply.queries.size());
  for (const QueryStat& query : reply.queries) {
    PutVarint(&out, Zig(query.query_id));
    PutVarint(&out, query.accepted ? 1 : 0);
    PutVarint(&out, query.active ? 1 : 0);
    PutVarint(&out, query.items);
    PutVarint(&out, query.bytes);
    PutVarint(&out, query.content_hash);
  }
  return out;
}

Result<StatsReply> DecodeStatsReply(std::string_view payload) {
  StatsReply reply;
  uint64_t draining = 0, count = 0;
  if (!GetVarint(&payload, &reply.epoch) ||
      !GetVarint(&payload, &draining) ||
      !GetVarint(&payload, &reply.items_fed) ||
      !GetVarint(&payload, &reply.attached_clients) ||
      !GetVarint(&payload, &reply.admitted) ||
      !GetVarint(&payload, &reply.rejected) ||
      !GetVarint(&payload, &reply.results_forwarded) ||
      !GetVarint(&payload, &reply.wal_appends) ||
      !GetVarint(&payload, &reply.wal_bytes) ||
      !GetVarint(&payload, &reply.wal_fsync_us) ||
      !GetVarint(&payload, &reply.wal_compactions) ||
      !GetVarint(&payload, &reply.wal_recovered_records) ||
      !GetVarint(&payload, &reply.wal_torn_tail_truncations) ||
      !GetVarint(&payload, &count)) {
    return Truncated("stats reply");
  }
  reply.draining = draining != 0;
  reply.queries.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    QueryStat query;
    uint64_t accepted = 0, active = 0;
    if (!GetSigned(&payload, &query.query_id) ||
        !GetVarint(&payload, &accepted) ||
        !GetVarint(&payload, &active) ||
        !GetVarint(&payload, &query.items) ||
        !GetVarint(&payload, &query.bytes) ||
        !GetVarint(&payload, &query.content_hash)) {
      return Truncated("stats reply query entry");
    }
    query.accepted = accepted != 0;
    query.active = active != 0;
    reply.queries.push_back(query);
  }
  return reply;
}

std::string EncodeSubscribeBatchReply(const SubscribeBatchReply& reply) {
  std::string out;
  PutVarint(&out, reply.entries.size());
  for (const SubscribeReply& entry : reply.entries) {
    PutVarint(&out, Zig(entry.query_id));
    PutVarint(&out, entry.accepted ? 1 : 0);
    PutVarint(&out, entry.forward_from);
    PutString(&out, entry.reject_reason);
  }
  PutVarint(&out, reply.analyze_cache_hits);
  PutVarint(&out, reply.plan_memo_hits);
  return out;
}

Result<SubscribeBatchReply> DecodeSubscribeBatchReply(
    std::string_view payload) {
  SubscribeBatchReply reply;
  uint64_t count = 0;
  if (!GetVarint(&payload, &count)) {
    return Truncated("subscribe-batch reply");
  }
  reply.entries.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    SubscribeReply entry;
    uint64_t accepted = 0;
    if (!GetSigned(&payload, &entry.query_id) ||
        !GetVarint(&payload, &accepted) ||
        !GetVarint(&payload, &entry.forward_from) ||
        !GetString(&payload, &entry.reject_reason)) {
      return Truncated("subscribe-batch reply entry");
    }
    entry.accepted = accepted != 0;
    reply.entries.push_back(std::move(entry));
  }
  if (!GetVarint(&payload, &reply.analyze_cache_hits) ||
      !GetVarint(&payload, &reply.plan_memo_hits)) {
    return Truncated("subscribe-batch reply counters");
  }
  return reply;
}

// Costs travel as the double's bit pattern: exact round-trip, no
// locale/precision concerns.
std::string EncodeReoptimizeReply(const ReoptimizeReply& reply) {
  std::string out;
  PutVarint(&out, reply.examined);
  PutVarint(&out, reply.migrated);
  PutVarint(&out, reply.torn_down);
  PutVarint(&out, reply.lost_windows);
  PutVarint(&out, std::bit_cast<uint64_t>(reply.cost_before));
  PutVarint(&out, std::bit_cast<uint64_t>(reply.cost_after));
  return out;
}

Result<ReoptimizeReply> DecodeReoptimizeReply(std::string_view payload) {
  ReoptimizeReply reply;
  uint64_t before = 0, after = 0;
  if (!GetVarint(&payload, &reply.examined) ||
      !GetVarint(&payload, &reply.migrated) ||
      !GetVarint(&payload, &reply.torn_down) ||
      !GetVarint(&payload, &reply.lost_windows) ||
      !GetVarint(&payload, &before) || !GetVarint(&payload, &after)) {
    return Truncated("reoptimize reply");
  }
  reply.cost_before = std::bit_cast<double>(before);
  reply.cost_after = std::bit_cast<double>(after);
  return reply;
}

void AppendResultHeader(std::string* out, int64_t query_id, uint64_t seq,
                        uint64_t delivery_us, uint64_t send_us) {
  PutVarint(out, Zig(query_id));
  PutVarint(out, seq);
  // The DATA v2 stamp layout: flags, send tick, delta to the earlier
  // tick, queue µs, transport µs — stateless per frame.
  PutVarint(out, 1);  // flags bit 0: stamped
  PutVarint(out, send_us);
  PutVarint(out, send_us >= delivery_us ? send_us - delivery_us : 0);
  PutVarint(out, send_us >= delivery_us ? send_us - delivery_us : 0);
  PutVarint(out, 0);  // transport µs accumulates on the client wire
}

std::string EncodeResultFrame(int64_t query_id, uint64_t seq,
                              uint64_t delivery_us, uint64_t send_us,
                              std::string_view encoded_item) {
  std::string out;
  AppendResultHeader(&out, query_id, seq, delivery_us, send_us);
  out.append(encoded_item);
  return out;
}

Result<ResultFrame> DecodeResultFrame(std::string_view body) {
  ResultFrame frame;
  uint64_t flags = 0, delta = 0;
  if (!GetSigned(&body, &frame.query_id) ||
      !GetVarint(&body, &frame.seq) || !GetVarint(&body, &flags) ||
      !GetVarint(&body, &frame.send_us) || !GetVarint(&body, &delta) ||
      !GetVarint(&body, &frame.residency_us) ||
      !GetVarint(&body, &frame.transport_us)) {
    return Truncated("result frame");
  }
  frame.stamped = (flags & 1) != 0;
  frame.delivery_us =
      frame.send_us >= delta ? frame.send_us - delta : 0;
  frame.item = body;
  return frame;
}

std::string EncodeServeEos(const ServeEos& eos) {
  std::string out;
  PutVarint(&out, eos.results_forwarded);
  PutVarint(&out, eos.final_drain ? 1 : 0);
  return out;
}

Result<ServeEos> DecodeServeEos(std::string_view body) {
  ServeEos eos;
  uint64_t final_drain = 0;
  if (!GetVarint(&body, &eos.results_forwarded) ||
      !GetVarint(&body, &final_drain)) {
    return Truncated("serve EOS");
  }
  eos.final_drain = final_drain != 0;
  return eos;
}

}  // namespace streamshare::serve
