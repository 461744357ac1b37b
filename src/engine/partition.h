// Peer-partition planning for the one partitioned runtime
// (engine/runtime.h), whichever of its two channels — in-process or wire
// — connects the workers. The operator graph is discovered from the
// entry operators, every operator is resolved to the super-peer it is
// deployed on, and operators are grouped into workers (one per peer,
// splitting a peer when merging would close a cycle among workers) so
// that every cross-worker handoff points down a DAG — bounded blocking on
// such edges cannot deadlock, and the end-of-stream pill protocol
// terminates.

#ifndef STREAMSHARE_ENGINE_PARTITION_H_
#define STREAMSHARE_ENGINE_PARTITION_H_

#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "engine/operator.h"

namespace streamshare::engine {

/// The partition of one operator graph: which worker drives each
/// operator, and which edges cross workers. Operator indices are
/// discovery order (BFS from the entries) — deterministic for a given
/// deployment, so two processes that built the same deployment agree on
/// every index.
struct PartitionPlan {
  /// Discovered operators in discovery order; the index into this vector
  /// is the operator's stable id.
  std::vector<Operator*> ops;
  std::unordered_map<Operator*, size_t> op_index;
  /// Downstream edges by operator index (the serial wiring; hard
  /// successors are not included).
  std::vector<std::vector<size_t>> succ;
  /// Resolved super-peer of each operator (operators without accounting
  /// inherit from the nearest accounted neighbor; isolated chains fall
  /// back to peer of worker 0).
  std::vector<int> peer_key;
  /// Worker driving each operator.
  std::vector<size_t> worker_of;
  size_t worker_count = 0;

  /// One deduplicated cross-worker edge, in discovery order.
  struct CrossEdge {
    size_t source = 0;  // op index on worker_of[source]
    size_t target = 0;  // op index on worker_of[target], a different worker
  };
  std::vector<CrossEdge> cross_edges;

  /// Peers whose operators run on each worker (a peer may appear on
  /// several workers when it was split to keep the handoff graph
  /// acyclic).
  std::vector<std::vector<network::NodeId>> worker_peers;
  std::vector<size_t> worker_operator_count;
  /// Workers each worker feeds across at least one cross edge.
  std::vector<std::set<size_t>> worker_downstream;

  size_t WorkerOf(Operator* op) const {
    return worker_of[op_index.at(op)];
  }
};

/// Plans the peer partition of the graph reachable from `entries`.
/// Fails on null entries. The graph is left untouched — the runtime
/// splices its channel's ports into the cross edges.
Status PlanPeerPartitions(const std::vector<Operator*>& entries,
                          PartitionPlan* plan);

/// Merges the plan's workers down to at most `max_workers` (no-op when
/// already within the cap or `max_workers` is 0). Workers are cut into
/// contiguous segments of a topological order of the worker handoff DAG,
/// balanced by operator count, so every surviving handoff edge still
/// points down a DAG and the pill protocol stays deadlock-free. The
/// runtime applies this for its in-process channel, against
/// ParallelOptions::max_workers; its wire channel does not (there a
/// worker models a distinct peer, which is semantic, not a tuning
/// knob).
void CoalesceWorkers(PartitionPlan* plan, size_t max_workers);

}  // namespace streamshare::engine

#endif  // STREAMSHARE_ENGINE_PARTITION_H_
