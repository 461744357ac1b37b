// The peer-partitioned runtime: executes a deployed operator network on
// one worker per super-peer partition (the paper's unit of concurrency —
// a super-peer evaluates its resident operators independently and
// exchanges streams with its neighbours).
//
// The operator graph is partitioned by the peer each operator is
// deployed on (PlanPeerPartitions), every edge that crosses a partition
// gets a sending port spliced in, and each worker drains its own bounded
// LinkQueue. Workers are formed in topological order of the operator
// DAG, so every cross-worker handoff points down a DAG and backpressure
// cannot deadlock.
//
// Only the cross-worker channel differs between the two modes:
//
//   in-process  (the default) the port hands whole ItemBatches to the
//               consumer's LinkQueue by pointer; partitions coalesce to
//               ParallelOptions::max_workers (CoalesceWorkers)
//   wire        a WorkerChannel supplied by the transport layer encodes
//               through the codec and credit flow; a receiver thread
//               decodes into the same LinkQueue. One worker per peer
//               partition (a worker there models a distinct peer)
//
// Everything else exists once: partition planning, splicing and
// restoring the serial wiring, the per-worker metric shards, the feeder,
// the drain loop, end of stream and error handling.
//
// End of stream uses poison pills: each producer (the feeder, and every
// upstream worker) delivers one pill after its last item; once a worker
// has collected all expected pills it calls Finish() on its boundary
// operators — exactly once per operator, on the operator's own thread.
//
// Metrics are sharded per worker: operators are rebound to a worker-local
// Metrics for the duration of the run (the hot path stays atomic-free)
// and the shards are merged into the original Metrics at the end.

#ifndef STREAMSHARE_ENGINE_RUNTIME_H_
#define STREAMSHARE_ENGINE_RUNTIME_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "engine/link_queue.h"
#include "engine/metrics.h"
#include "engine/operator.h"
#include "engine/partition.h"
#include "obs/trace.h"

namespace streamshare::engine {

struct ParallelOptions {
  /// Items each worker's inbound queue holds before producers block
  /// (pills count as one item; a batch is admitted whole once any space
  /// is free).
  size_t queue_capacity = 1024;
  /// Items per ItemBatch handoff: the feeder and every in-process port
  /// flush once they have buffered this many.
  size_t batch_size = 64;
  /// Cap on in-process worker threads; 0 means
  /// std::thread::hardware_concurrency(). Peer partitions beyond the cap
  /// are coalesced along the worker DAG (CoalesceWorkers), so one thread
  /// drives several peers instead of oversubscribing the machine. A wire
  /// channel keeps one worker per peer partition and rejects a cap.
  size_t max_workers = 0;
};

/// Per-worker observability for one Run (queue pressure, partition
/// shape). Indexed by worker id.
struct ParallelWorkerStats {
  /// Peers whose operators run on this worker (usually exactly one; a
  /// peer may also appear on several workers when its operators were
  /// split to keep the worker handoff graph acyclic).
  std::vector<network::NodeId> peers;
  size_t operator_count = 0;
  /// Items pushed into this worker's queue, poison pills included.
  uint64_t entries_received = 0;
  /// Time producers spent blocked on this worker's full queue.
  uint64_t producer_blocked_ns = 0;
  /// Time this worker spent blocked waiting for input.
  uint64_t consumer_blocked_ns = 0;
  /// High-water mark of this worker's queue depth (pills included).
  uint64_t max_queue_depth = 0;
};

/// First failure of a run; once recorded, every worker drains its queue
/// without processing and the channels relay the failure downstream.
class AbortState {
 public:
  void Record(Status status) {
    std::lock_guard<std::mutex> lock(mu_);
    if (first_error_.ok()) first_error_ = std::move(status);
    aborted_.store(true, std::memory_order_release);
  }
  bool aborted() const { return aborted_.load(std::memory_order_acquire); }
  Status status() {
    std::lock_guard<std::mutex> lock(mu_);
    return first_error_;
  }

 private:
  std::mutex mu_;
  Status first_error_ = Status::Ok();
  std::atomic<bool> aborted_{false};
};

/// How a batch emitted on one worker reaches another worker's queue.
/// The runtime calls Open once before any worker starts, then, on each
/// worker's thread, StartInbound before its drain loop and CloseOutbound
/// after it.
class WorkerChannel {
 public:
  virtual ~WorkerChannel() = default;

  /// Short name for traces and errors ("in-process", "loopback", "tcp").
  virtual std::string_view name() const = 0;
  /// Builds the sending port of every cross edge, in plan order
  /// (`ports[e]` replaces `plan.cross_edges[e]` on the source worker);
  /// `queues[w]` is worker w's inbound queue.
  virtual Status Open(const PartitionPlan& plan,
                      const std::vector<LinkQueue*>& queues,
                      size_t batch_size,
                      std::vector<std::unique_ptr<Operator>>* ports) = 0;
  /// Starts the helper threads worker `w` needs to receive (one per
  /// inbound channel on the wire). Each ends by pushing exactly one pill
  /// per upstream worker it serves onto `w`'s queue.
  virtual void StartInbound(size_t w, AbortState* abort,
                            std::vector<std::thread>* helpers) = 0;
  /// Worker `w`'s last act: flush its ports and deliver one pill (or the
  /// abort) to every downstream worker.
  virtual void CloseOutbound(size_t w, AbortState* abort) = 0;
};

class PartitionedRuntime {
 public:
  /// `channel` null runs the in-process channel; otherwise `channel`
  /// (which must outlive the runtime) carries every cross-worker edge.
  explicit PartitionedRuntime(ParallelOptions options = ParallelOptions(),
                              WorkerChannel* channel = nullptr);
  ~PartitionedRuntime();
  PartitionedRuntime(const PartitionedRuntime&) = delete;
  PartitionedRuntime& operator=(const PartitionedRuntime&) = delete;

  /// Feeds `item_lists[s]` into `entries[s]` (round-robin across streams,
  /// per-stream order preserved) on one thread per worker, then signals
  /// end of stream — the same single-shot contract as RunStreams(...,
  /// finish=true). `adopt` converts photon-conforming items into compact
  /// records while feeding (the batched hot path); off, every slot stays
  /// an opaque tree. The operator graph is restored to its serial wiring
  /// before returning, so serial and partitioned runs can alternate on
  /// one deployment. With finish=false the workers drain their pills but
  /// skip Finish(), so windowed state survives for a later segment.
  Status Run(const std::vector<Operator*>& entries,
             const std::vector<std::vector<ItemPtr>>& item_lists,
             bool adopt = true, bool finish = true);

  // --- Phases of Run, for drivers that place workers elsewhere (the
  // transport layer forks one process per worker around RunWorker). ---

  /// Plans the partition, splices the channel's ports into every cross
  /// edge and rebinds metrics to per-worker shards. The lists must
  /// outlive the run.
  Status Prepare(const std::vector<Operator*>& entries,
                 const std::vector<std::vector<ItemPtr>>& item_lists,
                 bool adopt);
  /// The per-worker entry point: starts the channel's receivers (and,
  /// with `feed`, a feeder for the streams whose entry lives on `w`),
  /// drains `w`'s queue until every pill arrived, finishes its boundary
  /// operators, and closes its outbound channels.
  void RunWorker(size_t w, bool finish, bool feed);
  /// Restores the serial wiring and metric bindings, merges every
  /// worker's shards into the original Metrics, and fills worker_stats()
  /// from the queues. Returns the run's first error.
  Status Complete();

  const PartitionPlan& plan() const { return plan_; }
  size_t worker_count() const { return workers_.size(); }
  /// Worker `w`'s (original, shard) metric pairs in the deterministic
  /// first-seen order of the rebind pass.
  const std::vector<std::pair<Metrics*, Metrics*>>& shards_of(
      size_t w) const {
    return workers_[w].shard_order;
  }
  const LinkQueue& queue(size_t w) const { return *workers_[w].queue; }
  AbortState* abort() { return abort_.get(); }

  /// Stats of the most recent run (writable so a driver can fill in what
  /// its workers measured elsewhere).
  std::vector<ParallelWorkerStats>& worker_stats() { return worker_stats_; }
  const std::vector<ParallelWorkerStats>& worker_stats() const {
    return worker_stats_;
  }

 private:
  /// Feeds the given streams (indices into the prepared lists), then
  /// delivers one pill to every worker they enter.
  void Feed(const std::vector<size_t>& streams);

  struct Worker {
    std::unique_ptr<LinkQueue> queue;
    /// Boundary operators finished once all pills arrived: entries
    /// assigned here plus targets of inbound cross edges, in discovery
    /// order.
    std::vector<Operator*> roots;
    std::vector<size_t> streams;
    size_t expected_pills = 0;
    std::vector<std::unique_ptr<Metrics>> shards;
    std::vector<std::pair<Metrics*, Metrics*>> shard_order;

    void AddRoot(Operator* op);
  };
  struct Splice {
    Operator* source;
    Operator* original;
    Operator* port;
  };
  struct Rebind {
    Operator* op;
    Metrics* original;
    Metrics* shard;
  };

  ParallelOptions options_;
  WorkerChannel* channel_;
  std::unique_ptr<WorkerChannel> in_process_;
  const std::vector<Operator*>* entries_ = nullptr;
  const std::vector<std::vector<ItemPtr>>* item_lists_ = nullptr;
  bool adopt_ = true;
  PartitionPlan plan_;
  std::vector<Worker> workers_;
  std::vector<std::unique_ptr<Operator>> ports_;
  std::vector<Splice> splices_;
  std::vector<Rebind> rebinds_;
  std::unique_ptr<AbortState> abort_;
  std::optional<obs::TraceSpan> run_span_;
  std::vector<ParallelWorkerStats> worker_stats_;
};

}  // namespace streamshare::engine

#endif  // STREAMSHARE_ENGINE_RUNTIME_H_
