// Push-based streaming operators. An operator receives items via Push,
// transforms them, and emits results to its downstream operators; fan-out
// (the paper's stream duplication at a super-peer) is simply multiple
// downstreams sharing the immutable items. Each operator is placed on a
// peer and bills work units to the deployment's Metrics on every
// invocation, so measured per-peer CPU load falls out of execution.

#ifndef STREAMSHARE_ENGINE_OPERATOR_H_
#define STREAMSHARE_ENGINE_OPERATOR_H_

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/item.h"
#include "engine/latency.h"
#include "engine/metrics.h"
#include "engine/record.h"
#include "predicate/atomic.h"
#include "xml/path.h"

namespace streamshare::obs {
class Histogram;
}  // namespace streamshare::obs

namespace streamshare::engine {

class Operator {
 public:
  explicit Operator(std::string label) : label_(std::move(label)) {}
  virtual ~Operator() = default;

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  const std::string& label() const { return label_; }

  /// Attaches a downstream consumer (not owned).
  void AddDownstream(Operator* downstream) {
    downstreams_.push_back(downstream);
  }
  /// Detaches a downstream consumer (query deregistration); no-op if it
  /// is not attached.
  void RemoveDownstream(Operator* downstream) {
    downstreams_.erase(
        std::remove(downstreams_.begin(), downstreams_.end(), downstream),
        downstreams_.end());
  }
  /// Swaps `from` for `to` in place, preserving emission order. Used by
  /// the partitioned runtime to splice channel ports into cross-peer
  /// edges (and to splice the original consumers back afterwards).
  void ReplaceDownstream(Operator* from, Operator* to) {
    std::replace(downstreams_.begin(), downstreams_.end(), from, to);
  }
  const std::vector<Operator*>& downstreams() const { return downstreams_; }

  /// Successors invoked through direct pointers rather than the
  /// downstream list (e.g. a combine port feeding its combiner). They
  /// share this operator's state unsynchronized, so a partitioned
  /// executor must keep them on the same worker.
  virtual void AppendHardSuccessors(std::vector<Operator*>*) {}

  /// Metrics sinks this operator writes to (accounting, link traffic).
  virtual void AppendMetricsTargets(std::vector<Metrics*>* out) {
    if (metrics_ != nullptr) out->push_back(metrics_);
  }
  /// Redirects every metrics pointer currently equal to `from` to `to` —
  /// the partitioned runtime points operators at per-worker shards for
  /// the duration of a run, then back.
  virtual void RebindMetrics(Metrics* from, Metrics* to) {
    if (metrics_ == from) metrics_ = to;
  }

  /// Bills `work_per_item` units to `peer` in `metrics` on every Push.
  void SetAccounting(Metrics* metrics, network::NodeId peer,
                     double work_per_item) {
    metrics_ = metrics;
    peer_ = peer;
    work_per_item_ = work_per_item;
  }
  network::NodeId peer() const { return peer_; }

  /// Feeds one item through this operator.
  Status Push(const ItemPtr& item) {
    if (metrics_ != nullptr) metrics_->AddWork(peer_, work_per_item_);
    return Process(item);
  }

  /// Feeds a batch of items. Billing is identical to size() Push calls
  /// (AddWorkN loops the adds); ProcessBatch gives operators a whole-batch
  /// hot path over the compact record slots. The batch stays owned by the
  /// caller: receivers may materialize slots (filling the lazy XML cache)
  /// but must not reshape the batch itself.
  Status PushBatch(ItemBatch* batch) {
    if (batch->empty()) return Status::Ok();
    if (metrics_ != nullptr) {
      metrics_->AddWorkN(peer_, work_per_item_, batch->size());
    }
    return ProcessBatch(batch);
  }

  /// Signals end of stream; flushes buffered state downstream. Idempotent.
  Status Finish();

  /// Windows currently open in this operator that hold partial content —
  /// state that is destroyed (not flushed) when the operator is detached
  /// by failure recovery. Stateless operators report 0. Recovery sums
  /// this over a torn-down plan into the recover.lost_windows counter.
  virtual size_t OpenWindowCount() const { return 0; }

 protected:
  virtual Status Process(const ItemPtr& item) = 0;
  /// Batch hook. The default materializes each slot and loops Process, so
  /// operators that genuinely need tree structure (window contents,
  /// combine, restructure) keep exact per-item semantics. Vectorized
  /// overrides that buffer output slots must flush the buffered results
  /// downstream *before* returning an error, so a failing run delivers
  /// exactly the prefix the per-item path would have.
  virtual Status ProcessBatch(ItemBatch* batch) {
    for (size_t i = 0; i < batch->size(); ++i) {
      // The per-item fallback re-enters the synchronous DOM push path;
      // surface the slot's latency stamp as the thread-local ambient so
      // sinks (and window flushes triggered by this item) still see it.
      latency::AmbientScope stamp(batch->slot(i).stamp);
      SS_RETURN_IF_ERROR(Process(batch->Materialize(i)));
    }
    return Status::Ok();
  }
  /// Flush hook for stateful operators; may Emit.
  virtual Status OnFinish() { return Status::Ok(); }

  /// Forwards an item to all downstreams.
  Status Emit(const ItemPtr& item);
  /// Forwards a batch to all downstreams.
  Status EmitBatch(ItemBatch* batch);

 private:
  std::string label_;
  std::vector<Operator*> downstreams_;
  Metrics* metrics_ = nullptr;
  network::NodeId peer_ = -1;
  double work_per_item_ = 0.0;
  bool finished_ = false;
};

/// σ: forwards items satisfying a conjunctive predicate.
class SelectOp : public Operator {
 public:
  SelectOp(std::string label,
           std::vector<predicate::AtomicPredicate> predicates)
      : Operator(std::move(label)), predicates_(std::move(predicates)) {}

  const std::vector<predicate::AtomicPredicate>& predicates() const {
    return predicates_;
  }
  /// Reconfigures the predicate in place — stream widening (paper §6)
  /// relaxes a deployed stream's selection so it regains data a new
  /// subscription needs.
  void set_predicates(std::vector<predicate::AtomicPredicate> predicates) {
    predicates_ = std::move(predicates);
    compiled_valid_ = false;
  }

 protected:
  Status Process(const ItemPtr& item) override;
  /// Evaluates the conjunction compiled against the photon schema over
  /// record slots, falling back to tree evaluation for opaque slots.
  Status ProcessBatch(ItemBatch* batch) override;

 private:
  std::vector<predicate::AtomicPredicate> predicates_;
  std::vector<CompiledPredicate> compiled_;
  bool compiled_valid_ = false;
  ItemBatch scratch_;
};

/// Π: rebuilds each item keeping only the subtrees covered by the output
/// paths (ancestors of kept subtrees survive as structure).
class ProjectOp : public Operator {
 public:
  ProjectOp(std::string label, std::vector<xml::Path> output_paths)
      : Operator(std::move(label)),
        output_paths_(std::move(output_paths)) {}

  const std::vector<xml::Path>& output_paths() const {
    return output_paths_;
  }
  /// Reconfigures the kept paths in place (stream widening).
  void set_output_paths(std::vector<xml::Path> output_paths) {
    output_paths_ = std::move(output_paths);
    mask_valid_ = false;
  }

 protected:
  Status Process(const ItemPtr& item) override;
  /// Projects record slots by mask intersection (no allocation), opaque
  /// slots by the tree rebuild.
  Status ProcessBatch(ItemBatch* batch) override;

 private:
  std::vector<xml::Path> output_paths_;
  uint16_t keep_mask_ = 0;
  bool mask_valid_ = false;
  ItemBatch scratch_;
};

/// Transmission over one network connection: counts the item's serialized
/// bytes against the link, then forwards.
class LinkOp : public Operator {
 public:
  LinkOp(std::string label, Metrics* metrics, network::LinkId link)
      : Operator(std::move(label)), link_metrics_(metrics), link_(link) {}

  void AppendMetricsTargets(std::vector<Metrics*>* out) override {
    Operator::AppendMetricsTargets(out);
    if (link_metrics_ != nullptr) out->push_back(link_metrics_);
  }
  void RebindMetrics(Metrics* from, Metrics* to) override {
    Operator::RebindMetrics(from, to);
    if (link_metrics_ == from) link_metrics_ = to;
  }

  /// The topology connection this operator transmits over — lets the
  /// transport layer attribute measured bytes-on-wire to the same link
  /// the cost model predicted u_b(e) for.
  network::LinkId link() const { return link_; }

 protected:
  Status Process(const ItemPtr& item) override;
  /// Bills record sizes without materializing, then forwards the batch.
  Status ProcessBatch(ItemBatch* batch) override;

 private:
  Metrics* link_metrics_;
  network::LinkId link_;
};

/// Terminal collector: counts items and (optionally) keeps them.
class SinkOp : public Operator {
 public:
  explicit SinkOp(std::string label, bool keep_items = false)
      : Operator(std::move(label)), keep_items_(keep_items) {}

  uint64_t item_count() const { return item_count_; }
  uint64_t total_bytes() const { return total_bytes_; }
  const std::vector<ItemPtr>& items() const { return items_; }

  /// Starts folding every received item into content_hash() (an
  /// order-insensitive structural hash). Off by default so the hot path
  /// of ordinary runs is unchanged; forked wire workers report it so
  /// sink contents survive the report pipe.
  void EnableContentHash() { hash_items_ = true; }
  uint64_t content_hash() const { return content_hash_; }

  /// Folds counts collected by another process's copy of this sink (the
  /// transport layer's multi-process mode reports them back over a pipe).
  void MergeCounts(uint64_t item_count, uint64_t total_bytes,
                   uint64_t content_hash) {
    item_count_ += item_count;
    total_bytes_ += total_bytes;
    content_hash_ += content_hash;
  }

  /// Starts recording measured end-to-end latency of stamped arrivals
  /// into latency.query.<query>.{e2e_us,stage.*_us} histograms in the
  /// default registry (sharded; fork-per-worker children report them back
  /// through the transport pipe protocol). Stage attribution: queue-wait
  /// and transport time accumulate in the stamp on the way here, pipeline
  /// time is the end-to-end remainder. Unstamped items are skipped.
  void EnableLatencyRecording(const std::string& query);

  /// e2e histogram installed by EnableLatencyRecording (null before).
  const obs::Histogram* latency_histogram() const { return lat_e2e_; }
  /// Stamped arrivals recorded by this sink instance.
  uint64_t stamped_count() const { return stamped_count_; }
  /// Arrivals whose ingress tick ran backwards vs. the previous stamped
  /// arrival. A serial run feeds and delivers in order, so the fuzz
  /// oracle requires 0 here on its stamped serial run.
  uint64_t stamp_regressions() const { return stamp_regressions_; }

 protected:
  Status Process(const ItemPtr& item) override;
  /// Counts, sizes and hashes straight off the record slots; materializes
  /// a tree only when the sink keeps items.
  Status ProcessBatch(ItemBatch* batch) override;
  /// Folds any batched latency observations into the shared histograms.
  Status OnFinish() override;

 private:
  /// Latency observations accumulate in these plain (single-writer)
  /// shards — a sink is only ever driven by one thread — and fold into
  /// the sharded registry histograms every kLatencyFlushInterval stamped
  /// arrivals and at Finish. Four atomic observes per delivered item
  /// would dominate the record hot path otherwise.
  struct LocalHist {
    std::vector<uint64_t> buckets;
    uint64_t count = 0;
    double sum = 0.0;
    double max = 0.0;
  };
  static void ObserveLocal(LocalHist* local, const obs::Histogram& hist,
                           double value);
  void FlushLatency();
  /// `now` is the arrival tick — NowUs() read once per delivered batch
  /// (slots of one batch share their arrival instant, like a fed chunk
  /// shares its ingress tick).
  void RecordLatency(const latency::ItemStamp& stamp, uint64_t now);

  bool keep_items_;
  bool hash_items_ = false;
  uint64_t item_count_ = 0;
  uint64_t total_bytes_ = 0;
  uint64_t content_hash_ = 0;
  std::vector<ItemPtr> items_;
  obs::Histogram* lat_e2e_ = nullptr;
  obs::Histogram* lat_pipeline_ = nullptr;
  obs::Histogram* lat_queue_ = nullptr;
  obs::Histogram* lat_transport_ = nullptr;
  LocalHist loc_e2e_;
  LocalHist loc_pipeline_;
  LocalHist loc_queue_;
  LocalHist loc_transport_;
  uint64_t unflushed_ = 0;
  uint64_t last_ingress_us_ = 0;
  uint64_t stamped_count_ = 0;
  uint64_t stamp_regressions_ = 0;
};

/// Identity operator marking a tap point (stream entry at a node).
class PassOp : public Operator {
 public:
  explicit PassOp(std::string label) : Operator(std::move(label)) {}

 protected:
  Status Process(const ItemPtr& item) override { return Emit(item); }
  Status ProcessBatch(ItemBatch* batch) override { return EmitBatch(batch); }
};

/// Order-sensitive structural hash of one item (names, texts, children in
/// pre-order). Sinks sum these per item into an order-insensitive
/// aggregate; PhotonRecord::ContentHash() matches this exactly.
uint64_t HashItemContent(const xml::XmlNode& item);

}  // namespace streamshare::engine

#endif  // STREAMSHARE_ENGINE_OPERATOR_H_
