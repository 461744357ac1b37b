#include "transport/runner.h"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/executor.h"
#include "engine/latency.h"
#include "engine/link_queue.h"
#include "engine/metrics.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "transport/codec.h"

namespace streamshare::transport {

namespace {

using engine::ItemPtr;
using engine::LinkQueue;
using engine::Metrics;
using engine::Operator;
using engine::PartitionPlan;

/// Registry series each worker feeds once per run from the stats of its
/// own channels.
struct TransportSeries {
  obs::Counter* items_sent;
  obs::Counter* frames_sent;
  obs::Counter* encoded_bytes;
  obs::Counter* wire_bytes;
  obs::Counter* credit_stalls;
  obs::Counter* duplicates_discarded;

  static const TransportSeries& Get() {
    static const TransportSeries series = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
      return TransportSeries{
          registry.GetCounter("transport.items_sent"),
          registry.GetCounter("transport.frames_sent"),
          registry.GetCounter("transport.encoded_bytes"),
          registry.GetCounter("transport.wire_bytes"),
          registry.GetCounter("transport.credit_stalls"),
          registry.GetCounter("transport.duplicates_discarded"),
      };
    }();
    return series;
  }
};

/// Prefix marking an error a worker merely relayed from upstream; the
/// multi-process merge prefers the originating worker's error over the
/// relays that cascaded from it.
constexpr std::string_view kRelayPrefix = "upstream worker failure: ";

/// Sending half of a cross-worker edge: encodes the item with the
/// channel's dictionary and ships it to the target's operator index.
/// Never bills engine metrics (the replaced edge's target still does its
/// own accounting when the receiving worker pushes into it).
class TransportPortOp final : public Operator {
 public:
  TransportPortOp(Operator* target, uint64_t target_index,
                  ChannelSender* sender, ItemEncoder* encoder,
                  EdgeTrafficStats* edge)
      : Operator("transport-port:" + target->label()),
        target_index_(target_index),
        sender_(sender),
        encoder_(encoder),
        edge_(edge) {}

 protected:
  Status Process(const ItemPtr& item) override {
    buffer_.clear();
    obs::TraceRecorder& recorder = obs::TraceRecorder::Default();
    const bool tracing = recorder.enabled();
    uint64_t start = tracing ? recorder.NowMicros() : 0;
    encoder_->Encode(*item, &buffer_);
    if (tracing) {
      recorder.RecordComplete(
          "codec.encode", "transport", start, recorder.NowMicros() - start,
          {obs::TraceArg::Num("bytes",
                              static_cast<double>(buffer_.size()))});
    }
    ++edge_->items;
    edge_->encoded_bytes += buffer_.size();
    // DOM-path emits carry the latency stamp in the thread-local ambient;
    // it crosses the wire as the v2 frame extension.
    return sender_->SendItem(target_index_, buffer_,
                             engine::latency::Ambient());
  }

  /// Record slots encode straight from the record's schema walk — same
  /// wire bytes and dictionary state as encoding the materialized tree,
  /// minus the tree.
  Status ProcessBatch(engine::ItemBatch* batch) override {
    obs::TraceRecorder& recorder = obs::TraceRecorder::Default();
    for (size_t i = 0; i < batch->size(); ++i) {
      const engine::ItemBatch::Slot& slot = batch->slot(i);
      buffer_.clear();
      const bool tracing = recorder.enabled();
      uint64_t start = tracing ? recorder.NowMicros() : 0;
      if (slot.is_record) {
        encoder_->EncodeRecord(slot.record, &buffer_);
      } else {
        encoder_->Encode(*slot.item, &buffer_);
      }
      if (tracing) {
        recorder.RecordComplete(
            "codec.encode", "transport", start,
            recorder.NowMicros() - start,
            {obs::TraceArg::Num("bytes",
                                static_cast<double>(buffer_.size()))});
      }
      ++edge_->items;
      edge_->encoded_bytes += buffer_.size();
      SS_RETURN_IF_ERROR(
          sender_->SendItem(target_index_, buffer_, slot.stamp));
    }
    return Status::Ok();
  }

 private:
  uint64_t target_index_;
  ChannelSender* sender_;
  ItemEncoder* encoder_;
  EdgeTrafficStats* edge_;
  std::string buffer_;
};

// --- Cross-process report blob -----------------------------------------
//
// A child serializes everything it measured into one varint-framed blob
// and writes it to its report pipe before _exit(0):
//
//   varint version (3)
//   varint status code | string message
//   varint #metric shards | per shard: varint #links, varint bytes each;
//                           varint #peers, double work + varint items each
//   varint #sinks   | per sink:    varint op index, Δitems, Δbytes, Δhash
//   varint #edges   | per edge:    varint edge index, items, encoded bytes
//   varint #channel halves | per half: varint channel index, 12 varints
//                            (ChannelStats fields in declaration order)
//   queue stats: 4 varints (entries, producer ns, consumer ns, max depth)
//   varint #histograms | per histogram: string name,
//                        varint #bounds + double each,
//                        varint count, double sum, double max,
//                        varint #buckets + varint each
//   varint #counters   | per counter: string name, varint value
//
// Shard order is the deterministic first-seen order of the rebind pass,
// which parent and child share (the child is a fork of the parent taken
// after that pass), so no names or ids travel with the shards. The
// registry sections carry names: they ship every non-empty registry
// histogram and counter (the runtime series, latency and queue
// residency), and the child calls MetricsRegistry::ResetAll right after
// fork so the values are pure run-deltas the parent can add without
// double counting.

void PutDouble(std::string* out, double value) {
  char bytes[sizeof(double)];
  std::memcpy(bytes, &value, sizeof(double));
  out->append(bytes, sizeof(double));
}

bool GetDouble(std::string_view* data, double* value) {
  if (data->size() < sizeof(double)) return false;
  std::memcpy(value, data->data(), sizeof(double));
  data->remove_prefix(sizeof(double));
  return true;
}

void PutString(std::string* out, std::string_view s) {
  PutVarint(out, s.size());
  out->append(s);
}

bool GetString(std::string_view* data, std::string* s) {
  uint64_t size = 0;
  if (!GetVarint(data, &size) || size > data->size()) return false;
  s->assign(data->substr(0, size));
  data->remove_prefix(size);
  return true;
}

void PutChannelStats(std::string* out, const ChannelStats& s) {
  PutVarint(out, s.frames_sent);
  PutVarint(out, s.bytes_sent);
  PutVarint(out, s.items_delivered);
  PutVarint(out, s.credit_stalls);
  PutVarint(out, s.credit_stall_ns);
  PutVarint(out, s.retries);
  PutVarint(out, s.faults_dropped);
  PutVarint(out, s.faults_duplicated);
  PutVarint(out, s.faults_delayed);
  PutVarint(out, s.duplicates_discarded);
  PutVarint(out, s.faults_credits_dropped);
  PutVarint(out, s.deadline_failures);
}

bool GetChannelStats(std::string_view* data, ChannelStats* s) {
  return GetVarint(data, &s->frames_sent) &&
         GetVarint(data, &s->bytes_sent) &&
         GetVarint(data, &s->items_delivered) &&
         GetVarint(data, &s->credit_stalls) &&
         GetVarint(data, &s->credit_stall_ns) &&
         GetVarint(data, &s->retries) &&
         GetVarint(data, &s->faults_dropped) &&
         GetVarint(data, &s->faults_duplicated) &&
         GetVarint(data, &s->faults_delayed) &&
         GetVarint(data, &s->duplicates_discarded) &&
         GetVarint(data, &s->faults_credits_dropped) &&
         GetVarint(data, &s->deadline_failures);
}

/// Adds every field of `from` into `into` (the two halves of a channel
/// report disjoint fields, so a plain field-wise sum recombines them).
void AddChannelStats(ChannelStats* into, const ChannelStats& from) {
  into->frames_sent += from.frames_sent;
  into->bytes_sent += from.bytes_sent;
  into->items_delivered += from.items_delivered;
  into->credit_stalls += from.credit_stalls;
  into->credit_stall_ns += from.credit_stall_ns;
  into->retries += from.retries;
  into->faults_dropped += from.faults_dropped;
  into->faults_duplicated += from.faults_duplicated;
  into->faults_delayed += from.faults_delayed;
  into->duplicates_discarded += from.duplicates_discarded;
  into->faults_credits_dropped += from.faults_credits_dropped;
  into->deadline_failures += from.deadline_failures;
}

bool WriteAll(int fd, std::string_view data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

bool ReadAll(int fd, std::string* out) {
  char chunk[16384];
  while (true) {
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return true;
    out->append(chunk, static_cast<size_t>(n));
  }
}

inline constexpr uint64_t kReportVersion = 3;

struct SinkBaseline {
  size_t op_index = 0;
  engine::SinkOp* sink = nullptr;
  uint64_t items = 0;
  uint64_t bytes = 0;
  uint64_t hash = 0;
};

Status StatusFromReport(uint64_t code, std::string message) {
  if (code == 0) return Status::Ok();
  if (code > static_cast<uint64_t>(StatusCode::kUnavailable)) {
    code = static_cast<uint64_t>(StatusCode::kInternal);
  }
  return Status(static_cast<StatusCode>(code), std::move(message));
}

}  // namespace

/// One flow-controlled channel between a pair of workers. The sender end
/// (and the shared per-channel encoder) is driven by the source worker's
/// thread, the receiver end by one receiver thread on the target worker;
/// each side records its half of the stats when it is done.
struct WireChannel::Channel {
  size_t source_worker = 0;
  size_t target_worker = 0;
  std::unique_ptr<ChannelSender> sender;
  std::unique_ptr<ChannelReceiver> receiver;
  ItemEncoder encoder;
  ChannelStats sent;
  ChannelStats received;
};

WireChannel::WireChannel(Transport* transport, FlowOptions flow,
                         FaultPlan faults)
    : transport_(transport), flow_(flow), faults_(faults) {}

WireChannel::~WireChannel() = default;

std::string_view WireChannel::name() const { return transport_->name(); }

Status WireChannel::Open(const PartitionPlan& plan,
                         const std::vector<LinkQueue*>& queues,
                         size_t /*batch_size*/,
                         std::vector<std::unique_ptr<Operator>>* ports) {
  plan_ = &plan;
  queues_ = queues;
  process_count_ = 0;
  channels_.clear();
  inbound_.assign(plan.worker_count, {});
  outbound_.assign(plan.worker_count, {});
  edges_.clear();
  // Ports bill their edge in place, so the vector never reallocates.
  edges_.reserve(plan.cross_edges.size());
  std::map<std::pair<size_t, size_t>, Channel*> channel_of;
  for (const PartitionPlan::CrossEdge& edge : plan.cross_edges) {
    size_t src = plan.worker_of[edge.source];
    size_t dst = plan.worker_of[edge.target];
    Channel*& channel = channel_of[{src, dst}];
    if (channel == nullptr) {
      // One channel per worker pair, its pipe created up front (before
      // any fork).
      std::string label =
          "w" + std::to_string(src) + "->w" + std::to_string(dst);
      PipePair pair;
      SS_RETURN_IF_ERROR(transport_->CreatePipe(label, &pair));
      auto created = std::make_unique<Channel>();
      created->source_worker = src;
      created->target_worker = dst;
      created->sender = std::make_unique<ChannelSender>(
          label, std::move(pair.ends[0]), flow_, faults_);
      created->receiver = std::make_unique<ChannelReceiver>(
          label, std::move(pair.ends[1]), flow_, faults_);
      channel = created.get();
      outbound_[src].push_back(channel);
      inbound_[dst].push_back(channel);
      channels_.push_back(std::move(created));
    }

    EdgeTrafficStats stats;
    stats.source_op = edge.source;
    stats.target_op = edge.target;
    stats.source_worker = src;
    stats.target_worker = dst;
    if (auto* link_op = dynamic_cast<engine::LinkOp*>(plan.ops[edge.source])) {
      stats.link = static_cast<int>(link_op->link());
    }
    edges_.push_back(stats);
    ports->push_back(std::make_unique<TransportPortOp>(
        plan.ops[edge.target], edge.target, channel->sender.get(),
        &channel->encoder, &edges_.back()));
  }
  return Status::Ok();
}

void WireChannel::StartInbound(size_t w, engine::AbortState* abort,
                               std::vector<std::thread>* helpers) {
  for (Channel* channel : inbound_[w]) {
    helpers->emplace_back(&WireChannel::Receive, this, w, channel, abort);
  }
}

/// Receiver thread: decodes DATA frames into the worker's bounded queue
/// and grants a credit only after the push went through — that handoff
/// is what extends queue backpressure across the wire. Ends with one
/// poison pill, whatever happened.
void WireChannel::Receive(size_t w, Channel* channel,
                          engine::AbortState* abort) {
  obs::ScopedShard pinned(w);
  obs::TraceRecorder& recorder = obs::TraceRecorder::Default();
  ChannelReceiver& receiver = *channel->receiver;
  ItemDecoder decoder;
  while (true) {
    ChannelReceiver::Incoming in;
    Status status = receiver.Recv(&in);
    if (!status.ok()) {
      abort->Record(std::move(status));
      break;
    }
    if (in.type == FrameType::kEos) break;
    if (in.type == FrameType::kError) {
      abort->Record(Status::Internal(std::string(kRelayPrefix) + in.error));
      break;
    }
    if (in.target >= plan_->ops.size() || plan_->worker_of[in.target] != w) {
      abort->Record(Status::Internal(
          "channel " + receiver.label() +
          ": DATA frame routed to a foreign operator index"));
      break;
    }
    engine::ItemBatch::Slot slot;
    const bool tracing = recorder.enabled();
    uint64_t start = tracing ? recorder.NowMicros() : 0;
    Status decoded = decoder.DecodeSlot(in.item_bytes, &slot);
    if (tracing) {
      recorder.RecordComplete(
          "codec.decode", "transport", start, recorder.NowMicros() - start,
          {obs::TraceArg::Num("bytes",
                              static_cast<double>(in.item_bytes.size()))});
    }
    if (!decoded.ok()) {
      abort->Record(decoded.WithContext("channel " + receiver.label()));
      break;
    }
    // The wire carries the stamp outside the item bytes; restore it onto
    // the decoded slot so it keeps riding toward the sink.
    slot.stamp = in.stamp;
    LinkQueue::Entry entry;
    entry.target = plan_->ops[in.target];
    entry.batch.AppendSlot(slot);
    queues_[w]->Push(std::move(entry));
    receiver.GrantCredit(1);
  }
  // Close promptly: the sender side holds its end open until this close
  // arrives (DrainUntilPeerClose), which keeps TCP teardown orderly when
  // each worker is its own process.
  receiver.Close();
  channel->received.items_delivered = receiver.stats().items_delivered;
  channel->received.duplicates_discarded =
      receiver.stats().duplicates_discarded;
  if (obs::Enabled()) {
    TransportSeries::Get().duplicates_discarded->Add(
        channel->received.duplicates_discarded);
  }
  queues_[w]->Push(LinkQueue::Entry{});
}

void WireChannel::CloseOutbound(size_t w, engine::AbortState* abort) {
  for (Channel* channel : outbound_[w]) {
    Status status = abort->aborted()
                        ? channel->sender->SendError(abort->status().ToString())
                        : channel->sender->SendEos();
    if (!status.ok() && !abort->aborted()) abort->Record(std::move(status));
  }
  // Only after EOS went down every channel: wait (bounded) for each peer
  // to acknowledge by closing its end, so no channel still has unread
  // CREDIT frames when this worker's fds close. A process-mode exit that
  // skips this can turn into a TCP reset that destroys the peer's
  // still-buffered EOS.
  for (Channel* channel : outbound_[w]) {
    channel->sender->DrainUntilPeerClose();
    channel->sent = channel->sender->stats();
  }
  // This worker's share of the run's traffic counters (a forked worker's
  // registry deltas travel back in its report).
  if (!obs::Enabled()) return;
  const TransportSeries& series = TransportSeries::Get();
  for (const EdgeTrafficStats& edge : edges_) {
    if (edge.source_worker != w) continue;
    series.items_sent->Add(edge.items);
    series.encoded_bytes->Add(edge.encoded_bytes);
  }
  for (Channel* channel : outbound_[w]) {
    series.frames_sent->Add(channel->sent.frames_sent);
    series.wire_bytes->Add(channel->sent.bytes_sent);
    series.credit_stalls->Add(channel->sent.credit_stalls);
  }
}

TransportRunStats WireChannel::run_stats() const {
  TransportRunStats stats;
  stats.transport = transport_->name();
  stats.process_count = process_count_;
  stats.edges = edges_;
  for (const auto& channel : channels_) {
    ChannelTrafficStats traffic;
    traffic.source_worker = channel->source_worker;
    traffic.target_worker = channel->target_worker;
    AddChannelStats(&traffic.stats, channel->sent);
    AddChannelStats(&traffic.stats, channel->received);
    stats.channels.push_back(traffic);
  }
  return stats;
}

namespace {

void PutRegistryDeltas(std::string* report) {
  std::vector<obs::MetricSnapshot> metrics =
      obs::MetricsRegistry::Default().Snapshot();
  std::vector<const obs::MetricSnapshot*> histograms, counters;
  for (const obs::MetricSnapshot& m : metrics) {
    if (m.kind == obs::MetricSnapshot::Kind::kHistogram && m.count > 0) {
      histograms.push_back(&m);
    } else if (m.kind == obs::MetricSnapshot::Kind::kCounter &&
               m.value > 0) {
      counters.push_back(&m);
    }
  }
  PutVarint(report, histograms.size());
  for (const obs::MetricSnapshot* m : histograms) {
    PutString(report, m->name);
    PutVarint(report, m->bounds.size());
    for (double bound : m->bounds) PutDouble(report, bound);
    PutVarint(report, m->count);
    PutDouble(report, m->sum);
    PutDouble(report, m->max);
    PutVarint(report, m->buckets.size());
    for (uint64_t bucket : m->buckets) PutVarint(report, bucket);
  }
  PutVarint(report, counters.size());
  for (const obs::MetricSnapshot* m : counters) {
    PutString(report, m->name);
    PutVarint(report, static_cast<uint64_t>(m->value));
  }
}

bool GetRegistryDeltas(std::string_view* data) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  uint64_t histogram_count = 0;
  bool ok = GetVarint(data, &histogram_count);
  for (uint64_t i = 0; ok && i < histogram_count; ++i) {
    std::string name;
    uint64_t bound_count = 0;
    ok = GetString(data, &name) && GetVarint(data, &bound_count) &&
         bound_count <= 4096;
    std::vector<double> bounds;
    bounds.reserve(ok ? bound_count : 0);
    for (uint64_t b = 0; ok && b < bound_count; ++b) {
      double edge = 0.0;
      ok = GetDouble(data, &edge);
      bounds.push_back(edge);
    }
    uint64_t count = 0, bucket_count = 0;
    double sum = 0.0, max_value = 0.0;
    ok = ok && GetVarint(data, &count) && GetDouble(data, &sum) &&
         GetDouble(data, &max_value) && GetVarint(data, &bucket_count) &&
         bucket_count <= 4096;
    std::vector<uint64_t> buckets;
    buckets.reserve(ok ? bucket_count : 0);
    for (uint64_t b = 0; ok && b < bucket_count; ++b) {
      uint64_t value = 0;
      ok = GetVarint(data, &value);
      buckets.push_back(value);
    }
    if (ok) {
      // Usually already registered pre-fork (same-process identity);
      // the bounds only matter for a series the parent never saw.
      registry.GetHistogram(name, std::move(bounds))
          ->MergeCounts(buckets, count, sum, max_value);
    }
  }
  uint64_t counter_count = 0;
  ok = ok && GetVarint(data, &counter_count);
  for (uint64_t i = 0; ok && i < counter_count; ++i) {
    std::string name;
    uint64_t value = 0;
    ok = GetString(data, &name) && GetVarint(data, &value);
    if (ok) registry.GetCounter(name)->Add(value);
  }
  return ok;
}

}  // namespace

Status RunWorkerProcesses(engine::PartitionedRuntime* runtime,
                          WireChannel* wire,
                          const std::vector<Operator*>& entries,
                          const std::vector<std::vector<ItemPtr>>& item_lists,
                          bool adopt, bool finish) {
  if (!wire->transport_->SupportsProcesses()) {
    return Status::InvalidArgument(
        std::string("transport '") + wire->transport_->name() +
        "' cannot span processes; run its workers as threads");
  }
  if (!finish) {
    return Status::Unsupported(
        "segmented runs (finish=false) need operator state to survive "
        "between segments, which forked worker processes cannot provide; "
        "run the workers as threads");
  }
  Status prepared = runtime->Prepare(entries, item_lists, adopt);
  if (!prepared.ok()) {
    runtime->Complete();
    return prepared;
  }
  const PartitionPlan& plan = runtime->plan();
  const size_t worker_count = runtime->worker_count();
  std::vector<std::unique_ptr<WireChannel::Channel>>& channels =
      wire->channels_;
  wire->process_count_ = worker_count;

  // Content hashes are how sink contents survive the report pipe at all.
  std::vector<SinkBaseline> sinks;
  for (size_t i = 0; i < plan.ops.size(); ++i) {
    if (auto* sink = dynamic_cast<engine::SinkOp*>(plan.ops[i])) {
      sink->EnableContentHash();
      sinks.push_back(SinkBaseline{i, sink, sink->item_count(),
                                   sink->total_bytes(),
                                   sink->content_hash()});
    }
  }

  // --- Fork one child per worker. All pipes (transport channels and
  // report pipes) exist before the first fork; every process then closes
  // the ends it does not own, so EOF semantics stay exact when a process
  // exits. ---
  Status run_status;
  std::vector<int> report_read(worker_count, -1);
  std::vector<int> report_write(worker_count, -1);
  for (size_t w = 0; w < worker_count && run_status.ok(); ++w) {
    int fds[2];
    if (::pipe(fds) != 0) {
      run_status =
          Status::Internal(std::string("pipe: ") + std::strerror(errno));
      break;
    }
    report_read[w] = fds[0];
    report_write[w] = fds[1];
  }

  std::vector<pid_t> children(worker_count, -1);
  for (size_t w = 0; w < worker_count && run_status.ok(); ++w) {
    pid_t pid = ::fork();
    if (pid < 0) {
      run_status =
          Status::Internal(std::string("fork: ") + std::strerror(errno));
      break;
    }
    if (pid == 0) {
      // === child: worker w ===
      for (size_t x = 0; x < worker_count; ++x) {
        if (report_read[x] >= 0) ::close(report_read[x]);
        if (x != w && report_write[x] >= 0) ::close(report_write[x]);
      }
      for (auto& channel : channels) {
        if (channel->source_worker != w) channel->sender->Close();
        if (channel->target_worker != w) channel->receiver->Close();
      }
      // Zero the inherited registry (identities survive, so cached
      // metric pointers stay valid): everything this child observes from
      // here on is a pure run-delta its report can hand the parent.
      obs::MetricsRegistry::Default().ResetAll();

      runtime->RunWorker(w, /*finish=*/true, /*feed=*/true);
      Status status = runtime->abort()->status();

      std::string report;
      PutVarint(&report, kReportVersion);
      PutVarint(&report, static_cast<uint64_t>(status.code()));
      PutString(&report, status.ok() ? "" : status.message());

      const auto& shards = runtime->shards_of(w);
      PutVarint(&report, shards.size());
      for (const auto& [original, shard] : shards) {
        (void)original;
        PutVarint(&report, shard->link_count());
        for (size_t i = 0; i < shard->link_count(); ++i) {
          PutVarint(&report,
                    shard->BytesOnLink(static_cast<network::LinkId>(i)));
        }
        PutVarint(&report, shard->peer_count());
        for (size_t i = 0; i < shard->peer_count(); ++i) {
          network::NodeId peer = static_cast<network::NodeId>(i);
          PutDouble(&report, shard->WorkAtPeer(peer));
          PutVarint(&report, shard->OperatorInvocationsAtPeer(peer));
        }
      }

      uint64_t sink_count = 0;
      for (const SinkBaseline& s : sinks) {
        if (plan.worker_of[s.op_index] == w) ++sink_count;
      }
      PutVarint(&report, sink_count);
      for (const SinkBaseline& s : sinks) {
        if (plan.worker_of[s.op_index] != w) continue;
        PutVarint(&report, s.op_index);
        PutVarint(&report, s.sink->item_count() - s.items);
        PutVarint(&report, s.sink->total_bytes() - s.bytes);
        PutVarint(&report, s.sink->content_hash() - s.hash);
      }

      const std::vector<EdgeTrafficStats>& edges = wire->edges_;
      uint64_t edge_count = 0;
      for (const EdgeTrafficStats& e : edges) {
        if (e.source_worker == w) ++edge_count;
      }
      PutVarint(&report, edge_count);
      for (size_t e = 0; e < edges.size(); ++e) {
        if (edges[e].source_worker != w) continue;
        PutVarint(&report, e);
        PutVarint(&report, edges[e].items);
        PutVarint(&report, edges[e].encoded_bytes);
      }

      // A channel's two ends live on different workers, so (channel,
      // reporting worker) says which half a record is.
      uint64_t half_count = 0;
      for (const auto& channel : channels) {
        if (channel->source_worker == w) ++half_count;
        if (channel->target_worker == w) ++half_count;
      }
      PutVarint(&report, half_count);
      for (size_t c = 0; c < channels.size(); ++c) {
        if (channels[c]->source_worker == w) {
          PutVarint(&report, c);
          PutChannelStats(&report, channels[c]->sent);
        }
        if (channels[c]->target_worker == w) {
          PutVarint(&report, c);
          PutChannelStats(&report, channels[c]->received);
        }
      }

      const LinkQueue& queue = runtime->queue(w);
      PutVarint(&report, queue.pushed_count());
      PutVarint(&report, queue.producer_blocked_ns());
      PutVarint(&report, queue.consumer_blocked_ns());
      PutVarint(&report, queue.max_depth());

      PutRegistryDeltas(&report);

      WriteAll(report_write[w], report);
      ::close(report_write[w]);
      ::_exit(0);
    }
    children[w] = pid;
  }

  // Parent: drop every pipe end the children own copies of, then collect
  // the reports. Closing the channel ends here is essential — it makes a
  // crashed child observable as EOF instead of a hang.
  for (auto& channel : channels) {
    channel->sender->Close();
    channel->receiver->Close();
  }
  for (size_t w = 0; w < worker_count; ++w) {
    if (report_write[w] >= 0) ::close(report_write[w]);
  }

  std::vector<Status> statuses(worker_count);
  std::vector<engine::ParallelWorkerStats> queue_stats(worker_count);
  std::map<size_t, engine::SinkOp*> sink_by_index;
  for (const SinkBaseline& s : sinks) sink_by_index[s.op_index] = s.sink;

  for (size_t w = 0; w < worker_count; ++w) {
    if (children[w] < 0) {
      statuses[w] =
          Status::Internal("worker " + std::to_string(w) + ": never forked");
      if (report_read[w] >= 0) ::close(report_read[w]);
      continue;
    }
    std::string blob;
    bool read_ok = ReadAll(report_read[w], &blob);
    ::close(report_read[w]);

    auto report_error = [&](const std::string& what) {
      statuses[w] = Status::Internal(
          "worker " + std::to_string(w) + ": " + what +
          " (worker process crashed or was killed?)");
    };
    if (!read_ok) {
      report_error("report pipe read failed");
      continue;
    }
    std::string_view data = blob;
    uint64_t version = 0, code = 0;
    std::string message;
    if (!GetVarint(&data, &version) || version != kReportVersion ||
        !GetVarint(&data, &code) || !GetString(&data, &message)) {
      report_error("truncated or malformed report");
      continue;
    }
    statuses[w] = StatusFromReport(code, std::move(message));

    // Shard values land in the parent's copy of each shard; the
    // runtime's Complete merges them like any thread worker's.
    const auto& shards = runtime->shards_of(w);
    uint64_t shard_count = 0;
    bool ok = GetVarint(&data, &shard_count) && shard_count == shards.size();
    for (size_t i = 0; ok && i < shard_count; ++i) {
      Metrics* shard = shards[i].second;
      uint64_t link_count = 0, peer_count = 0;
      ok = GetVarint(&data, &link_count) && link_count == shard->link_count();
      for (uint64_t l = 0; ok && l < link_count; ++l) {
        uint64_t bytes = 0;
        ok = GetVarint(&data, &bytes);
        if (ok) shard->AddBytes(static_cast<network::LinkId>(l), bytes);
      }
      ok = ok && GetVarint(&data, &peer_count) &&
           peer_count == shard->peer_count();
      for (uint64_t p = 0; ok && p < peer_count; ++p) {
        double work = 0.0;
        uint64_t invocations = 0;
        ok = GetDouble(&data, &work) && GetVarint(&data, &invocations);
        if (ok) {
          shard->AddMeasured(static_cast<network::NodeId>(p), work,
                             invocations);
        }
      }
    }

    uint64_t sink_count = 0;
    ok = ok && GetVarint(&data, &sink_count);
    for (uint64_t i = 0; ok && i < sink_count; ++i) {
      uint64_t op_index = 0, d_items = 0, d_bytes = 0, d_hash = 0;
      ok = GetVarint(&data, &op_index) && GetVarint(&data, &d_items) &&
           GetVarint(&data, &d_bytes) && GetVarint(&data, &d_hash);
      auto it = sink_by_index.find(op_index);
      ok = ok && it != sink_by_index.end();
      if (ok) it->second->MergeCounts(d_items, d_bytes, d_hash);
    }

    uint64_t edge_count = 0;
    ok = ok && GetVarint(&data, &edge_count);
    for (uint64_t i = 0; ok && i < edge_count; ++i) {
      uint64_t edge = 0, items = 0, encoded_bytes = 0;
      ok = GetVarint(&data, &edge) && GetVarint(&data, &items) &&
           GetVarint(&data, &encoded_bytes) && edge < wire->edges_.size();
      if (ok) {
        wire->edges_[edge].items = items;
        wire->edges_[edge].encoded_bytes = encoded_bytes;
      }
    }

    uint64_t half_count = 0;
    ok = ok && GetVarint(&data, &half_count);
    for (uint64_t i = 0; ok && i < half_count; ++i) {
      uint64_t c = 0;
      ChannelStats half;
      ok = GetVarint(&data, &c) && GetChannelStats(&data, &half) &&
           c < channels.size();
      if (ok) {
        (channels[c]->source_worker == w ? channels[c]->sent
                                         : channels[c]->received) = half;
      }
    }

    engine::ParallelWorkerStats& queue = queue_stats[w];
    ok = ok && GetVarint(&data, &queue.entries_received) &&
         GetVarint(&data, &queue.producer_blocked_ns) &&
         GetVarint(&data, &queue.consumer_blocked_ns) &&
         GetVarint(&data, &queue.max_queue_depth);
    ok = ok && GetRegistryDeltas(&data);
    if (!ok && statuses[w].ok()) {
      report_error("truncated or malformed report");
    }
  }

  for (size_t w = 0; w < worker_count; ++w) {
    if (children[w] < 0) continue;
    int wstatus = 0;
    while (::waitpid(children[w], &wstatus, 0) < 0 && errno == EINTR) {
    }
    if (statuses[w].ok() &&
        (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0)) {
      statuses[w] = Status::Internal(
          "worker " + std::to_string(w) +
          ": process exited abnormally (status " + std::to_string(wstatus) +
          ")");
    }
  }

  // Prefer the error that originated a failure over the relays other
  // workers recorded when the ERROR frame cascaded to them.
  if (run_status.ok()) {
    for (const Status& status : statuses) {
      if (!status.ok() && status.message().compare(0, kRelayPrefix.size(),
                                                   kRelayPrefix) != 0) {
        run_status = status;
        break;
      }
    }
  }
  if (run_status.ok()) {
    for (const Status& status : statuses) {
      if (!status.ok()) {
        run_status = status;
        break;
      }
    }
  }

  runtime->Complete();
  std::vector<engine::ParallelWorkerStats>& stats = runtime->worker_stats();
  for (size_t w = 0; w < stats.size(); ++w) {
    stats[w].entries_received = queue_stats[w].entries_received;
    stats[w].producer_blocked_ns = queue_stats[w].producer_blocked_ns;
    stats[w].consumer_blocked_ns = queue_stats[w].consumer_blocked_ns;
    stats[w].max_queue_depth = queue_stats[w].max_queue_depth;
  }
  return run_status;
}

}  // namespace streamshare::transport
