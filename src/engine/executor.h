// Driving a deployed operator network: owns operators, feeds source items,
// and propagates end-of-stream. The operator graph is a forest rooted at
// per-stream entry operators; fan-out happens wherever a stream is shared.

#ifndef STREAMSHARE_ENGINE_EXECUTOR_H_
#define STREAMSHARE_ENGINE_EXECUTOR_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/operator.h"

namespace streamshare::engine {

/// Canonical context prefix for a Status escaping `op` during `action`
/// ("push" or "finish"): "<action> <label>". Both the serial executor
/// and the partitioned runtime wrap operator failures through
/// WrapOperatorFailure, so a failing query reports the same string
/// either way.
std::string OperatorContext(std::string_view action, const Operator& op);

/// Prefixes `status` with OperatorContext and emits an error event to the
/// default obs::EventLog (when a sink is installed).
Status WrapOperatorFailure(Status status, std::string_view action,
                           const Operator& op);

/// Owns a set of operators wired into a dataflow graph.
class OperatorGraph {
 public:
  /// Constructs and registers an operator; returns a borrowed pointer
  /// valid for the lifetime of the graph.
  template <typename Op, typename... Args>
  Op* Add(Args&&... args) {
    auto op = std::make_unique<Op>(std::forward<Args>(args)...);
    Op* raw = op.get();
    operators_.push_back(std::move(op));
    return raw;
  }

  size_t size() const { return operators_.size(); }

 private:
  std::vector<std::unique_ptr<Operator>> operators_;
};

/// Feeds `items` into `entry` one by one, then signals end of stream.
Status RunStream(Operator* entry, const std::vector<ItemPtr>& items);

/// Interleaves several sources round-robin (approximating concurrent
/// streams of equal rate). When `finish` is true (the default), signals
/// end of stream afterwards — a single-shot run. Pass false to keep the
/// streams live (continuous operation with more feeds to come); note that
/// end-of-stream is a one-shot signal per operator, so finishing is only
/// meaningful once.
Status RunStreams(const std::vector<Operator*>& entries,
                  const std::vector<std::vector<ItemPtr>>& item_lists,
                  bool finish = true);

/// Batched drive of the same streams: chunks each stream's items into
/// ItemBatches of `batch_size` (adopting photon-conforming items into
/// compact records when `adopt` is true) and round-robins whole chunks
/// across streams. Per-stream order and all sink aggregates match
/// RunStreams; only the cross-stream interleave granularity differs
/// (chunks instead of single items).
Status RunStreamsBatched(const std::vector<Operator*>& entries,
                         const std::vector<std::vector<ItemPtr>>& item_lists,
                         size_t batch_size, bool adopt, bool finish = true);

/// Round-robins pre-built per-stream batch lists (generator- or
/// decoder-fed runs that never had a DOM to chunk). Batches are consumed
/// in place: pushing may fill their lazy materialization caches.
Status RunBatchStreams(const std::vector<Operator*>& entries,
                       std::vector<std::vector<ItemBatch>>* batch_lists,
                       bool finish = true);

}  // namespace streamshare::engine

#endif  // STREAMSHARE_ENGINE_EXECUTOR_H_
