// The CONTROL plane of streamshare_serve, multiplexed over the existing
// length-prefixed wire format (transport/wire.h). Three frame types carry
// the whole service protocol:
//
//   CONTROL     varint request id | varint verb | verb payload
//   ACK         varint request id | varint status code |
//               varint(message length) | message | verb reply payload
//   RESULT      varint query id | varint seq | varint flags |
//               varint send tick µs | varint (send − delivery tick) |
//               varint daemon-residency µs | varint transport µs |
//               encoded item (transport/codec.h, per-connection encoder)
//
// Requests and responses correlate by request id (client-chosen,
// monotonically increasing per connection); RESULT frames interleave
// freely between a request and its ACK, so a client processes deliveries
// while waiting. The RESULT stamp mirrors the DATA v2 latency extension
// byte-for-byte (flags, send tick, delta-encoded earlier tick, queue µs,
// transport µs) with serve-plane semantics: the "ingress" tick is the
// moment the daemon observed the item at the query's sink, queue µs is
// the residency between that observation and the forward, and transport
// µs accumulates on the client wire. EOS on this plane carries
// `varint results forwarded to this connection | varint final` — final 0
// is a restartable drain (reconnect after the daemon resumes), final 1
// means the service flushed and is gone.
//
// See docs/SERVICE.md for the protocol table and lifecycle.

#ifndef STREAMSHARE_SERVE_CONTROL_H_
#define STREAMSHARE_SERVE_CONTROL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace streamshare::serve {

/// Bumped when a verb payload changes incompatibly. Hello carries it;
/// a daemon rejects clients speaking a different version.
/// v2: StatsReply grew the serve.wal.* durability counters.
inline constexpr uint64_t kServeProtocolVersion = 2;

enum class Verb : uint8_t {
  kHello = 1,        // protocol handshake; first request on a connection
  kSubscribe = 2,    // register (or re-attach to) a continuous query
  kUnsubscribe = 3,  // remove a subscription (refcounted stream GC)
  kFailPeer = 4,     // declare a super-peer dead (chaos / operations)
  kCutLink = 5,      // sever one link
  kStats = 6,        // deployment + per-query sink counters
  kFeed = 7,         // advance the scenario generators n items per stream
  kDrain = 8,        // stop admitting; checkpoint (restartable) or flush
  kDetach = 9,       // drop this connection's attachments, keep the
                     // subscriptions installed (re-attach later)
  kSubscribeBatch = 10,  // register many queries in one planned pass
  kReoptimize = 11,  // background re-optimization pass (plan migration)
};

/// One decoded control request. Verb-specific fields are only meaningful
/// for their verb; everything else keeps its default.
struct ControlRequest {
  uint64_t request_id = 0;
  Verb verb = Verb::kHello;

  // kHello
  uint64_t protocol = kServeProtocolVersion;
  std::string client_name;

  // kSubscribe
  std::string query_text;
  int64_t vq = 0;
  uint8_t strategy = 2;  // sharing::Strategy value; 2 = kStreamSharing
  /// Re-attach to an existing query instead of registering: the query id
  /// plus one (0 = fresh registration).
  uint64_t attach_query_plus1 = 0;
  /// Forward sink deliveries starting at this index (what the client
  /// already holds from a previous life).
  uint64_t resume_from = 0;

  // kUnsubscribe
  int64_t query_id = -1;

  // kFailPeer / kCutLink
  int64_t peer = -1;
  int64_t link_a = -1, link_b = -1;

  // kFeed
  uint64_t feed_items = 0;

  // kDrain
  bool final_drain = false;

  // kSubscribeBatch: the queries, registered in order with sequential
  // semantics (identical ids/plans/results to one kSubscribe per entry).
  struct BatchEntry {
    std::string query_text;
    int64_t vq = 0;
    uint8_t strategy = 2;
  };
  std::vector<BatchEntry> batch;

  // kReoptimize: migration cap per pass (-1 = unbounded).
  int64_t max_migrations = -1;
};

std::string EncodeRequest(const ControlRequest& request);
Result<ControlRequest> DecodeRequest(std::string_view body);

/// One control response. `code` is the remote StatusCode (0 = ok);
/// `payload` is the verb-specific reply body, empty on error.
struct ControlResponse {
  uint64_t request_id = 0;
  uint64_t code = 0;
  std::string message;
  std::string payload;
};

std::string EncodeResponse(const ControlResponse& response);
Result<ControlResponse> DecodeResponse(std::string_view body);

/// Turns a response's code/message back into a Status (Ok for code 0).
Status ResponseStatus(const ControlResponse& response);

// --- Verb reply payloads -------------------------------------------------

struct HelloReply {
  uint64_t protocol = kServeProtocolVersion;
  uint64_t epoch = 0;  // service life counter (restarts increment it)
  uint64_t items_fed = 0;
  bool draining = false;
};

struct SubscribeReply {
  int64_t query_id = -1;
  bool accepted = false;
  std::string reject_reason;
  /// Index forwarding starts at (== request.resume_from, clamped to the
  /// sink's delivery count).
  uint64_t forward_from = 0;
};

struct FeedReply {
  uint64_t items_fed = 0;  // cumulative items per stream after this feed
};

struct RecoveryReply {
  uint64_t replans = 0;
  uint64_t lost_queries = 0;
  uint64_t dead_targets = 0;
  uint64_t lost_windows = 0;
};

struct DrainReply {
  bool final_drain = false;
  uint64_t epoch = 0;
};

struct QueryStat {
  int64_t query_id = -1;
  bool accepted = false;
  bool active = false;
  uint64_t items = 0;
  uint64_t bytes = 0;
  uint64_t content_hash = 0;
};

struct StatsReply {
  uint64_t epoch = 0;
  bool draining = false;
  uint64_t items_fed = 0;
  uint64_t attached_clients = 0;
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  uint64_t results_forwarded = 0;
  /// Durability plane: write-ahead log counters (zero when the daemon
  /// runs without a checkpoint path).
  uint64_t wal_appends = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_fsync_us = 0;
  uint64_t wal_compactions = 0;
  uint64_t wal_recovered_records = 0;
  uint64_t wal_torn_tail_truncations = 0;
  std::vector<QueryStat> queries;
};

struct SubscribeBatchReply {
  /// One entry per batch query, in request order.
  std::vector<SubscribeReply> entries;
  /// Clustering counters (sharing::StreamShareSystem::BatchStats).
  uint64_t analyze_cache_hits = 0;
  uint64_t plan_memo_hits = 0;
};

struct ReoptimizeReply {
  uint64_t examined = 0;
  uint64_t migrated = 0;
  uint64_t torn_down = 0;
  uint64_t lost_windows = 0;
  double cost_before = 0.0;
  double cost_after = 0.0;
};

std::string EncodeHelloReply(const HelloReply& reply);
Result<HelloReply> DecodeHelloReply(std::string_view payload);
std::string EncodeSubscribeReply(const SubscribeReply& reply);
Result<SubscribeReply> DecodeSubscribeReply(std::string_view payload);
std::string EncodeFeedReply(const FeedReply& reply);
Result<FeedReply> DecodeFeedReply(std::string_view payload);
std::string EncodeRecoveryReply(const RecoveryReply& reply);
Result<RecoveryReply> DecodeRecoveryReply(std::string_view payload);
std::string EncodeDrainReply(const DrainReply& reply);
Result<DrainReply> DecodeDrainReply(std::string_view payload);
std::string EncodeStatsReply(const StatsReply& reply);
Result<StatsReply> DecodeStatsReply(std::string_view payload);
std::string EncodeSubscribeBatchReply(const SubscribeBatchReply& reply);
Result<SubscribeBatchReply> DecodeSubscribeBatchReply(
    std::string_view payload);
std::string EncodeReoptimizeReply(const ReoptimizeReply& reply);
Result<ReoptimizeReply> DecodeReoptimizeReply(std::string_view payload);

// --- RESULT frames -------------------------------------------------------

/// Decoded header of one RESULT frame; `item` aliases the frame body.
struct ResultFrame {
  int64_t query_id = -1;
  uint64_t seq = 0;
  bool stamped = false;
  uint64_t send_us = 0;      // daemon tick at forward time
  uint64_t delivery_us = 0;  // daemon tick when the sink delivery was seen
  uint64_t residency_us = 0; // forward − delivery (daemon queueing)
  uint64_t transport_us = 0; // accumulated wire time (client adds its hop)
  std::string_view item;     // encoded item bytes
};

/// Appends a RESULT frame body's header (query id, seq, stamp) to *out;
/// the encoded item follows it.
void AppendResultHeader(std::string* out, int64_t query_id, uint64_t seq,
                        uint64_t delivery_us, uint64_t send_us);
/// Encodes header + `encoded_item` into a RESULT frame body.
std::string EncodeResultFrame(int64_t query_id, uint64_t seq,
                              uint64_t delivery_us, uint64_t send_us,
                              std::string_view encoded_item);
Result<ResultFrame> DecodeResultFrame(std::string_view body);

/// EOS body on the serve plane.
struct ServeEos {
  uint64_t results_forwarded = 0;
  bool final_drain = false;
};

std::string EncodeServeEos(const ServeEos& eos);
Result<ServeEos> DecodeServeEos(std::string_view body);

}  // namespace streamshare::serve

#endif  // STREAMSHARE_SERVE_CONTROL_H_
