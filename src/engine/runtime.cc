#include "engine/runtime.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "engine/executor.h"
#include "engine/latency.h"
#include "obs/metrics_registry.h"

namespace streamshare::engine {

namespace {

/// Registry series fed by every partitioned run. Looked up once; updates
/// are per-shard relaxed adds on the worker's pinned shard.
struct RuntimeSeries {
  obs::Counter* items;
  obs::Counter* batches;
  obs::Histogram* batch_items;

  static const RuntimeSeries& Get() {
    static const RuntimeSeries series = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
      return RuntimeSeries{
          registry.GetCounter("engine.parallel.items"),
          registry.GetCounter("engine.parallel.batches"),
          registry.GetHistogram("engine.parallel.batch_items",
                                obs::Histogram::ExponentialBounds(1, 2, 12)),
      };
    }();
    return series;
  }
};

/// Sending half of an in-process cross-worker edge: accumulates emitted
/// slots into a pending ItemBatch and hands the whole batch to the
/// consumer worker's queue as one entry — one lock acquisition and one
/// wakeup per batch. Lives on the producer's thread; never bills metrics
/// (the replaced edge's target still does its own accounting when the
/// consumer pushes into it).
class QueuePortOp final : public Operator {
 public:
  QueuePortOp(Operator* target, LinkQueue* queue, size_t buffer_limit)
      : Operator("queue-port:" + target->label()),
        target_(target),
        queue_(queue),
        buffer_limit_(buffer_limit) {
    pending_.reserve(buffer_limit_);
  }

  void Flush() {
    if (pending_.empty()) return;
    queue_->Push(LinkQueue::Entry{target_, std::move(pending_)});
    pending_ = ItemBatch();
    pending_.reserve(buffer_limit_);
  }

 protected:
  Status Process(const ItemPtr& item) override {
    pending_.AppendItem(item, /*adopt=*/false);
    // A DOM-path emit carries its latency stamp in the thread-local
    // ambient; persist it on the slot before the batch crosses threads.
    pending_.slot(pending_.size() - 1).stamp = latency::Ambient();
    if (pending_.size() >= buffer_limit_) Flush();
    return Status::Ok();
  }

  Status ProcessBatch(ItemBatch* batch) override {
    for (size_t i = 0; i < batch->size(); ++i) {
      pending_.AppendSlot(batch->slot(i));
      if (pending_.size() >= buffer_limit_) Flush();
    }
    return Status::Ok();
  }

 private:
  Operator* target_;
  LinkQueue* queue_;
  size_t buffer_limit_;
  ItemBatch pending_;
};

/// The in-process channel: batches cross by pointer into the consumer's
/// queue, and end of stream is one pill pushed straight onto every
/// downstream worker's queue.
class InProcessChannel final : public WorkerChannel {
 public:
  std::string_view name() const override { return "in-process"; }

  Status Open(const PartitionPlan& plan,
              const std::vector<LinkQueue*>& queues, size_t batch_size,
              std::vector<std::unique_ptr<Operator>>* ports) override {
    queues_ = queues;
    downstream_ = plan.worker_downstream;
    worker_ports_.assign(plan.worker_count, {});
    for (const PartitionPlan::CrossEdge& edge : plan.cross_edges) {
      auto port = std::make_unique<QueuePortOp>(
          plan.ops[edge.target], queues[plan.worker_of[edge.target]],
          batch_size);
      worker_ports_[plan.worker_of[edge.source]].push_back(port.get());
      ports->push_back(std::move(port));
    }
    return Status::Ok();
  }

  void StartInbound(size_t, AbortState*, std::vector<std::thread>*) override {
  }

  void CloseOutbound(size_t w, AbortState* abort) override {
    if (!abort->aborted()) {
      for (QueuePortOp* port : worker_ports_[w]) port->Flush();
    }
    for (size_t downstream : downstream_[w]) {
      queues_[downstream]->Push(LinkQueue::Entry{});
    }
  }

 private:
  std::vector<LinkQueue*> queues_;
  std::vector<std::set<size_t>> downstream_;
  std::vector<std::vector<QueuePortOp*>> worker_ports_;
};

std::string WorkerName(size_t w, const std::vector<network::NodeId>& peers) {
  std::string name = "worker-" + std::to_string(w);
  if (peers.empty()) return name;
  name += " [";
  for (size_t i = 0; i < peers.size(); ++i) {
    if (i > 0) name += ",";
    name += "SP" + std::to_string(peers[i]);
  }
  return name + "]";
}

}  // namespace

void PartitionedRuntime::Worker::AddRoot(Operator* op) {
  if (std::find(roots.begin(), roots.end(), op) == roots.end()) {
    roots.push_back(op);
  }
}

PartitionedRuntime::PartitionedRuntime(ParallelOptions options,
                                       WorkerChannel* channel)
    : options_(options), channel_(channel) {
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  if (options_.batch_size == 0) options_.batch_size = 1;
  if (channel_ == nullptr) {
    in_process_ = std::make_unique<InProcessChannel>();
    channel_ = in_process_.get();
  }
}

PartitionedRuntime::~PartitionedRuntime() { Complete(); }

Status PartitionedRuntime::Prepare(
    const std::vector<Operator*>& entries,
    const std::vector<std::vector<ItemPtr>>& item_lists, bool adopt) {
  Complete();  // a runtime reused for another run starts clean
  worker_stats_.clear();
  if (entries.size() != item_lists.size()) {
    return Status::InvalidArgument(
        "PartitionedRuntime: entries and item lists differ in count");
  }
  entries_ = &entries;
  item_lists_ = &item_lists;
  adopt_ = adopt;
  abort_ = std::make_unique<AbortState>();

  // --- Plan the peer partition. In-process workers are a tuning knob
  // and coalesce to the cap; a wire channel's workers model distinct
  // peers, which is semantic. ---
  plan_ = PartitionPlan();
  SS_RETURN_IF_ERROR(PlanPeerPartitions(entries, &plan_));
  if (in_process_ != nullptr) {
    CoalesceWorkers(&plan_, options_.max_workers != 0
                                ? options_.max_workers
                                : std::max(1u,
                                           std::thread::hardware_concurrency()));
  } else if (options_.max_workers != 0) {
    return Status::InvalidArgument(
        std::string("max_workers caps in-process workers only; the ") +
        std::string(channel_->name()) +
        " channel runs one worker per peer partition");
  }

  const size_t worker_count = plan_.worker_count;
  workers_ = std::vector<Worker>(worker_count);
  std::vector<LinkQueue*> queues;
  const bool observe_residency = latency::Enabled() && obs::Enabled();
  for (size_t w = 0; w < worker_count; ++w) {
    workers_[w].queue = std::make_unique<LinkQueue>(options_.queue_capacity);
    if (observe_residency) {
      // Registered before any fork, so a forked worker observes into a
      // histogram the parent also owns and can merge its report into.
      workers_[w].queue->SetResidencyHistogram(
          obs::MetricsRegistry::Default().GetHistogram(
              "engine.queue.worker." + std::to_string(w) + ".residency_us",
              obs::Histogram::ExponentialBounds(50.0, 1.6, 24)));
    }
    queues.push_back(workers_[w].queue.get());
  }
  for (size_t s = 0; s < entries.size(); ++s) {
    Worker& worker = workers_[plan_.WorkerOf(entries[s])];
    if (worker.streams.empty()) ++worker.expected_pills;  // the feeder's
    worker.streams.push_back(s);
    worker.AddRoot(entries[s]);
  }
  for (size_t w = 0; w < worker_count; ++w) {
    for (size_t downstream : plan_.worker_downstream[w]) {
      ++workers_[downstream].expected_pills;
    }
  }

  // --- Splice the channel's ports into every cross-worker edge. ---
  SS_RETURN_IF_ERROR(
      channel_->Open(plan_, queues, options_.batch_size, &ports_));
  for (size_t e = 0; e < plan_.cross_edges.size(); ++e) {
    const PartitionPlan::CrossEdge& edge = plan_.cross_edges[e];
    Operator* source = plan_.ops[edge.source];
    Operator* target = plan_.ops[edge.target];
    source->ReplaceDownstream(target, ports_[e].get());
    workers_[plan_.worker_of[edge.target]].AddRoot(target);
    splices_.push_back(Splice{source, target, ports_[e].get()});
  }

  // --- Rebind metrics to per-worker shards (the hot path stays lock- and
  // atomic-free; shards merge back in Complete). The first-seen order is
  // deterministic, so a forked worker can report its shards by position.
  std::vector<Metrics*> targets;
  for (size_t i = 0; i < plan_.ops.size(); ++i) {
    targets.clear();
    plan_.ops[i]->AppendMetricsTargets(&targets);
    Worker& worker = workers_[plan_.worker_of[i]];
    for (Metrics* original : targets) {
      auto it = std::find_if(
          worker.shard_order.begin(), worker.shard_order.end(),
          [original](const auto& pair) { return pair.first == original; });
      Metrics* shard;
      if (it != worker.shard_order.end()) {
        shard = it->second;
      } else {
        worker.shards.push_back(
            std::make_unique<Metrics>(Metrics::ShardLike(*original)));
        shard = worker.shards.back().get();
        worker.shard_order.emplace_back(original, shard);
      }
      plan_.ops[i]->RebindMetrics(original, shard);
      rebinds_.push_back(Rebind{plan_.ops[i], original, shard});
    }
  }

  run_span_.emplace(&obs::TraceRecorder::Default(), "parallel.run",
                    "engine");
  run_span_->AddArg(
      obs::TraceArg::Str("channel", std::string(channel_->name())));
  run_span_->AddArg(
      obs::TraceArg::Num("workers", static_cast<double>(worker_count)));
  run_span_->AddArg(
      obs::TraceArg::Num("operators", static_cast<double>(plan_.ops.size())));
  return Status::Ok();
}

void PartitionedRuntime::RunWorker(size_t w, bool finish, bool feed) {
  Worker& worker = workers_[w];
  AbortState* abort = abort_.get();
  // Pin this worker's registry updates to its own shard so worker
  // threads never contend on a metric cache line.
  obs::ScopedShard pinned(w);
  obs::TraceRecorder& recorder = obs::TraceRecorder::Default();
  if (recorder.enabled()) {
    recorder.SetThreadName(WorkerName(w, plan_.worker_peers[w]));
  }

  std::vector<std::thread> helpers;
  channel_->StartInbound(w, abort, &helpers);
  if (feed && !worker.streams.empty()) {
    helpers.emplace_back([this, &worker] { Feed(worker.streams); });
  }

  const RuntimeSeries& series = RuntimeSeries::Get();
  const bool count_metrics = obs::Enabled();
  std::vector<LinkQueue::Entry> batch;
  size_t pills = 0;
  while (pills < worker.expected_pills) {
    batch.clear();
    worker.queue->PopBatch(&batch, options_.batch_size);
    for (LinkQueue::Entry& entry : batch) {
      if (entry.target == nullptr) {
        ++pills;
        continue;
      }
      if (abort->aborted()) continue;  // drain without processing
      uint64_t span_start = 0;
      const bool tracing = recorder.enabled();
      if (tracing) span_start = recorder.NowMicros();
      Status status = entry.target->PushBatch(&entry.batch);
      if (tracing) {
        recorder.RecordComplete(
            entry.target->label(), "op", span_start,
            recorder.NowMicros() - span_start,
            {obs::TraceArg::Num("items",
                                static_cast<double>(entry.batch.size()))});
      }
      if (count_metrics) {
        series.items->AddToShard(w, entry.batch.size());
        series.batches->AddToShard(w, 1);
        series.batch_items->ObserveToShard(
            w, static_cast<double>(entry.batch.size()));
      }
      if (!status.ok()) {
        abort->Record(
            WrapOperatorFailure(std::move(status), "push", *entry.target));
      }
    }
  }
  if (finish && !abort->aborted()) {
    for (Operator* root : worker.roots) {
      obs::TraceSpan finish_span(&recorder, "finish:" + root->label(),
                                 "op");
      Status status = root->Finish();
      if (!status.ok()) {
        abort->Record(WrapOperatorFailure(std::move(status), "finish", *root));
        break;
      }
    }
  }
  channel_->CloseOutbound(w, abort);
  for (std::thread& helper : helpers) helper.join();
}

void PartitionedRuntime::Feed(const std::vector<size_t>& streams) {
  // Per-stream pending batches: items are adopted into compact records
  // while buffering and each full batch crosses the queue as a single
  // entry (one lock, one wakeup).
  const std::vector<Operator*>& entries = *entries_;
  const std::vector<std::vector<ItemPtr>>& item_lists = *item_lists_;
  const size_t batch_size = options_.batch_size;
  const bool stamping = latency::Enabled();
  std::vector<ItemBatch> buffers(streams.size());
  std::vector<size_t> cursors(streams.size(), 0);
  std::vector<LinkQueue*> queues(streams.size());
  std::vector<size_t> active;
  for (size_t i = 0; i < streams.size(); ++i) {
    buffers[i].reserve(batch_size);
    queues[i] = workers_[plan_.WorkerOf(entries[streams[i]])].queue.get();
    if (!item_lists[streams[i]].empty()) active.push_back(i);
  }
  while (!active.empty() && !abort_->aborted()) {
    size_t write = 0;
    for (size_t i : active) {
      const std::vector<ItemPtr>& items = item_lists[streams[i]];
      buffers[i].AppendItem(items[cursors[i]++], adopt_);
      if (stamping) {
        buffers[i].slot(buffers[i].size() - 1).stamp.ingress_us =
            latency::NowUs();
      }
      if (buffers[i].size() >= batch_size) {
        queues[i]->Push(
            LinkQueue::Entry{entries[streams[i]], std::move(buffers[i])});
        buffers[i] = ItemBatch();
        buffers[i].reserve(batch_size);
      }
      if (cursors[i] < items.size()) active[write++] = i;
    }
    active.resize(write);
  }
  if (!abort_->aborted()) {
    for (size_t i = 0; i < streams.size(); ++i) {
      if (buffers[i].empty()) continue;
      queues[i]->Push(
          LinkQueue::Entry{entries[streams[i]], std::move(buffers[i])});
    }
  }
  std::sort(queues.begin(), queues.end());
  queues.erase(std::unique(queues.begin(), queues.end()), queues.end());
  for (LinkQueue* queue : queues) queue->Push(LinkQueue::Entry{});
}

Status PartitionedRuntime::Complete() {
  if (entries_ == nullptr) return Status::Ok();
  // --- Restore the serial wiring and metric bindings, merge the shards.
  for (const Splice& splice : splices_) {
    splice.source->ReplaceDownstream(splice.port, splice.original);
  }
  for (const Rebind& rebind : rebinds_) {
    rebind.op->RebindMetrics(rebind.shard, rebind.original);
  }
  worker_stats_.clear();
  worker_stats_.reserve(workers_.size());
  for (size_t w = 0; w < workers_.size(); ++w) {
    Worker& worker = workers_[w];
    for (const auto& [original, shard] : worker.shard_order) {
      original->MergeFrom(*shard);
    }
    ParallelWorkerStats stats;
    stats.peers = plan_.worker_peers[w];
    stats.operator_count = plan_.worker_operator_count[w];
    stats.entries_received = worker.queue->pushed_count();
    stats.producer_blocked_ns = worker.queue->producer_blocked_ns();
    stats.consumer_blocked_ns = worker.queue->consumer_blocked_ns();
    stats.max_queue_depth = worker.queue->max_depth();
    worker_stats_.push_back(std::move(stats));
  }
  splices_.clear();
  rebinds_.clear();
  ports_.clear();
  workers_.clear();
  run_span_.reset();
  entries_ = nullptr;
  item_lists_ = nullptr;
  return abort_->status();
}

Status PartitionedRuntime::Run(
    const std::vector<Operator*>& entries,
    const std::vector<std::vector<ItemPtr>>& item_lists, bool adopt,
    bool finish) {
  Status prepared = Prepare(entries, item_lists, adopt);
  if (!prepared.ok()) {
    Complete();
    return prepared;
  }
  // One thread per worker; the calling thread feeds every stream.
  std::vector<std::thread> threads;
  threads.reserve(workers_.size());
  for (size_t w = 0; w < workers_.size(); ++w) {
    threads.emplace_back(&PartitionedRuntime::RunWorker, this, w, finish,
                         /*feed=*/false);
  }
  std::vector<size_t> all_streams(entries.size());
  for (size_t s = 0; s < entries.size(); ++s) all_streams[s] = s;
  Feed(all_streams);
  for (std::thread& thread : threads) thread.join();
  return Complete();
}

}  // namespace streamshare::engine
