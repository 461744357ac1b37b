// Window-based aggregation operators and the internal aggregate stream
// format. Aggregate result streams flowing in the super-peer network carry
// one <wagg> item per window update:
//
//   <wagg><seq>i</seq><sum>S</sum><cnt>C</cnt></wagg>   (sum/count/avg)
//   <wagg><seq>i</seq><val>V</val></wagg>               (min/max)
//
// avg is deliberately carried as (sum, count) — the paper's internal
// representation (§3.3), which is what makes an avg stream reusable for
// sum and count subscriptions; the final avg value is computed at the
// target super-peer during restructuring.
//
// Window sequence numbers anchor sharing: window i spans
//   item-based:  items  [i·µ, i·µ + Δ)       (indices within the stream)
//   time-based:  values [i·µ, i·µ + Δ)       (of the ordered reference
//                                             element, anchored at 0)
// Anchoring time windows at absolute 0 makes windows of different
// subscriptions over the same reference element align, as Fig. 5 assumes.

#ifndef STREAMSHARE_ENGINE_WINDOW_AGG_H_
#define STREAMSHARE_ENGINE_WINDOW_AGG_H_

#include <cstdint>
#include <deque>
#include <map>
#include <optional>

#include "engine/operator.h"
#include "engine/window_tracker.h"
#include "properties/operators.h"
#include "properties/window.h"

namespace streamshare::engine {

/// The decoded payload of one <wagg> item.
struct AggItem {
  int64_t seq = 0;
  /// sum/count representation (sum, count, avg) ...
  std::optional<Decimal> sum;
  std::optional<int64_t> count;
  /// ... or extremum representation (min, max).
  std::optional<Decimal> value;

  /// The final aggregate value under `func` (avg divides sum by count).
  Result<Decimal> Finalize(properties::AggregateFunc func) const;
};

/// Builds the <wagg> XML item for an aggregate value.
ItemPtr MakeAggItem(const AggItem& agg);

/// Parses a <wagg> item.
Result<AggItem> ParseAggItem(const xml::XmlNode& item);

/// Computes window aggregates over its input stream and emits one <wagg>
/// item per completed window, in sequence order. Supports item-based
/// (count) and time-based (diff) windows with arbitrary step sizes
/// (overlapping when µ < Δ, sampling when µ > Δ).
class WindowAggOp : public Operator {
 public:
  /// `resume` anchors the tracker in resume mode (see
  /// WindowTracker::EnableResume): the operator is being rebuilt
  /// mid-stream by failure recovery and must suppress windows already
  /// underway at its first input rather than emit them partially filled.
  WindowAggOp(std::string label, properties::AggregateFunc func,
              xml::Path aggregated_element, properties::WindowSpec window,
              bool resume = false);

  size_t OpenWindowCount() const override;

 protected:
  Status Process(const ItemPtr& item) override;
  /// Record slots update the trackers straight from the compiled field
  /// lookups (no tree); opaque slots take the per-item path.
  Status ProcessBatch(ItemBatch* batch) override;
  Status OnFinish() override;

 private:
  struct WindowState {
    Decimal sum;
    int64_t count = 0;
    std::optional<Decimal> extremum;
  };

  Status EmitWindow(int64_t seq, const WindowState& window);
  void Accumulate(WindowState* window, const Decimal& value);
  Status ProcessRecord(const PhotonRecord& record);

  properties::AggregateFunc func_;
  xml::Path aggregated_element_;
  WindowTracker tracker_;
  std::map<int64_t, WindowState> open_;
  // Reference and aggregated element compiled against the photon schema
  // (paths are fixed at construction).
  int ref_node_ = -1;
  std::string ref_path_;
  int agg_node_ = -1;
  std::string agg_path_;
};

/// Emits the *contents* of each completed data window as one
/// <window><seq>i</seq> item... item... </window> element — the stream a
/// WXQuery without a let-aggregate but with a window produces. Such
/// streams are shareable only with an identical window specification
/// (§3.3's unknown-operator rule applies to them).
class WindowContentsOp : public Operator {
 public:
  WindowContentsOp(std::string label, properties::WindowSpec window,
                   bool resume = false);

  size_t OpenWindowCount() const override;

 protected:
  Status Process(const ItemPtr& item) override;
  Status OnFinish() override;

 private:
  Status EmitWindow(int64_t seq);

  WindowTracker tracker_;
  std::map<int64_t, std::vector<ItemPtr>> open_;
};

/// Recombines a fine-grained aggregate stream (window Δ, step µ) into a
/// coarser one (window Δ′ = k·Δ, step µ′ = m·µ), the Fig. 5 reuse. Fine
/// windows arrive as <wagg> items; coarse window j combines the
/// non-overlapping fine windows starting at j·µ′ + t·Δ for t < k.
/// Preconditions are MatchAggregations' divisibility rules.
///
/// Fine windows below the first one seen ended before the stream's first
/// item, so the fine aggregate never emitted them. A fresh combiner
/// counts them as empty, exactly as direct aggregation does, and emits
/// every coarse window that ends after the first item. With `resume`
/// (a deployment rebuilt mid-stream) it instead skips every coarse
/// window that needs one of them: gap, not garbage.
class AggCombineOp : public Operator {
 public:
  AggCombineOp(std::string label, properties::AggregateFunc func,
               properties::WindowSpec fine, properties::WindowSpec coarse,
               bool resume = false);

  size_t OpenWindowCount() const override;

 protected:
  Status Process(const ItemPtr& item) override;
  Status OnFinish() override;

 private:
  Status TryEmit();
  /// Combines the buffered parts of coarse window `j`; missing parts
  /// count as empty.
  AggItem Combine(int64_t j) const;

  properties::AggregateFunc func_;
  bool resume_;
  // All in units of the fine step µ.
  int64_t fine_size_steps_;    // Δ / µ
  int64_t coarse_size_steps_;  // Δ′ / µ
  int64_t coarse_step_steps_;  // µ′ / µ
  std::map<int64_t, AggItem> buffer_;  // fine seq → item
  int64_t next_coarse_ = 0;
  int64_t first_fine_seen_ = -1;
  int64_t max_fine_seen_ = -1;
};

/// Filters an aggregate stream on the (finalized) aggregate value — the
/// paper's result filter (Q4's "where $a >= 1.3"). Predicates use
/// properties::AggregateValuePath() as their lhs.
class AggFilterOp : public Operator {
 public:
  AggFilterOp(std::string label, properties::AggregateFunc func,
              std::vector<predicate::AtomicPredicate> predicates)
      : Operator(std::move(label)),
        func_(func),
        predicates_(std::move(predicates)) {}

 protected:
  Status Process(const ItemPtr& item) override;

 private:
  properties::AggregateFunc func_;
  std::vector<predicate::AtomicPredicate> predicates_;
};

}  // namespace streamshare::engine

#endif  // STREAMSHARE_ENGINE_WINDOW_AGG_H_
