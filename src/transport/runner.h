// The wire channel of the partitioned runtime (engine/runtime.h), and the
// process mode built on it.
//
// WireChannel connects every pair of workers joined by a cross edge with
// one channel over a pluggable transport, flow-controlled per flow.h:
// the sending port encodes each item with the channel's dictionary, and a
// receiver thread on the target worker decodes into that worker's
// bounded LinkQueue, granting a credit only after the push went through.
// Everything else — partitioning, the drain loop, end of stream, metric
// shards — is the runtime's. Driven by PartitionedRuntime::Run, every
// worker is a thread of this process (any transport; this is how the TCP
// stack runs under TSAN).
//
// RunWorkerProcesses forks one OS process per worker around the
// runtime's per-worker entry point instead (requires a transport whose
// pipes survive fork, i.e. TCP). Children report metric shards, registry
// deltas, sink counts and traffic stats back over a pipe and the parent
// merges them.
//
// Operator indices from the partition plan double as cross-process
// operator ids: discovery order is deterministic, so parent and children
// agree on every index without any registration protocol.

#ifndef STREAMSHARE_TRANSPORT_RUNNER_H_
#define STREAMSHARE_TRANSPORT_RUNNER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/runtime.h"
#include "transport/flow.h"
#include "transport/transport.h"

namespace streamshare::transport {

/// Traffic of one cross-worker edge in the last run.
struct EdgeTrafficStats {
  size_t source_op = 0;  ///< partition-plan op index
  size_t target_op = 0;
  size_t source_worker = 0;
  size_t target_worker = 0;
  /// Topology link the source operator transmits over, if the source is
  /// a LinkOp; -1 otherwise.
  int link = -1;
  uint64_t items = 0;
  uint64_t encoded_bytes = 0;  ///< codec output, before frame overhead
};

/// Traffic of one worker-pair channel in the last run (both ends).
struct ChannelTrafficStats {
  size_t source_worker = 0;
  size_t target_worker = 0;
  ChannelStats stats;
};

/// Everything the last run measured on the wire, for
/// System::ExportMetrics. Per-worker queue stats are the runtime's.
struct TransportRunStats {
  std::string transport;
  size_t process_count = 0;  ///< children forked (0 in thread mode)
  std::vector<EdgeTrafficStats> edges;
  std::vector<ChannelTrafficStats> channels;
};

class WireChannel final : public engine::WorkerChannel {
 public:
  /// `transport` must outlive the channel. `faults` applies to every
  /// channel's sender and receiver (drop/delay/duplicate frames).
  WireChannel(Transport* transport, FlowOptions flow, FaultPlan faults);
  ~WireChannel() override;

  std::string_view name() const override;
  Status Open(const engine::PartitionPlan& plan,
              const std::vector<engine::LinkQueue*>& queues,
              size_t batch_size,
              std::vector<std::unique_ptr<engine::Operator>>* ports) override;
  void StartInbound(size_t w, engine::AbortState* abort,
                    std::vector<std::thread>* helpers) override;
  void CloseOutbound(size_t w, engine::AbortState* abort) override;

  /// What the last run measured (both channel ends summed).
  TransportRunStats run_stats() const;

 private:
  struct Channel;
  friend Status RunWorkerProcesses(
      engine::PartitionedRuntime* runtime, WireChannel* wire,
      const std::vector<engine::Operator*>& entries,
      const std::vector<std::vector<engine::ItemPtr>>& item_lists,
      bool adopt, bool finish);

  void Receive(size_t w, Channel* channel, engine::AbortState* abort);

  Transport* transport_;
  FlowOptions flow_;
  FaultPlan faults_;
  const engine::PartitionPlan* plan_ = nullptr;
  std::vector<engine::LinkQueue*> queues_;
  std::vector<std::unique_ptr<Channel>> channels_;
  std::vector<std::vector<Channel*>> inbound_;
  std::vector<std::vector<Channel*>> outbound_;
  std::vector<EdgeTrafficStats> edges_;
  size_t process_count_ = 0;
};

/// Process mode: prepares `runtime` (constructed over `wire`) and forks
/// one child per worker, each running PartitionedRuntime::RunWorker with
/// its own feeder. Single-shot only: a forked child takes its operator
/// state to the grave, so a segmented run (finish=false) is Unsupported.
/// Metrics, sink counts and content hashes measured in the children are
/// merged into this process's objects before returning, and the graph
/// is restored to its serial wiring.
Status RunWorkerProcesses(
    engine::PartitionedRuntime* runtime, WireChannel* wire,
    const std::vector<engine::Operator*>& entries,
    const std::vector<std::vector<engine::ItemPtr>>& item_lists, bool adopt,
    bool finish);

}  // namespace streamshare::transport

#endif  // STREAMSHARE_TRANSPORT_RUNNER_H_
