// Unit tests for window aggregation: item- and time-based windows with
// overlapping / tumbling / sampling steps, the internal (sum, count)
// representation of avg, the Fig.-5 window recombination operator, and
// the aggregate result filter. A parameterized sweep verifies that
// recombining fine windows reproduces exactly what direct coarse
// aggregation computes.

#include "engine/window_agg.h"

#include <gtest/gtest.h>

#include "engine/executor.h"
#include "properties/window.h"

namespace streamshare::engine {
namespace {

using properties::AggregateFunc;
using properties::WindowSpec;

xml::Path P(const char* text) { return xml::Path::Parse(text).value(); }

/// Item with a value element <x> and a time element <t>.
ItemPtr TimedItem(double t, double x) {
  auto node = std::make_unique<xml::XmlNode>("item");
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.1f", t);
  node->AddLeaf("t", buffer);
  std::snprintf(buffer, sizeof(buffer), "%.1f", x);
  node->AddLeaf("x", buffer);
  return MakeItem(std::move(node));
}

std::vector<AggItem> Collect(const SinkOp& sink) {
  std::vector<AggItem> out;
  for (const ItemPtr& item : sink.items()) {
    Result<AggItem> agg = ParseAggItem(*item);
    EXPECT_TRUE(agg.ok()) << agg.status();
    out.push_back(*agg);
  }
  return out;
}

TEST(AggItemTest, RoundTripThroughXml) {
  AggItem agg;
  agg.seq = 7;
  agg.sum = Decimal::Parse("12.5").value();
  agg.count = 4;
  ItemPtr item = MakeAggItem(agg);
  Result<AggItem> parsed = ParseAggItem(*item);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->seq, 7);
  EXPECT_EQ(*parsed->sum, Decimal::Parse("12.5").value());
  EXPECT_EQ(*parsed->count, 4);
  EXPECT_FALSE(parsed->value.has_value());
}

TEST(AggItemTest, FinalizeAllFunctions) {
  AggItem agg;
  agg.seq = 0;
  agg.sum = Decimal::Parse("10.0").value();
  agg.count = 4;
  EXPECT_EQ(agg.Finalize(AggregateFunc::kSum).value(),
            Decimal::Parse("10.0").value());
  EXPECT_EQ(agg.Finalize(AggregateFunc::kCount).value(),
            Decimal::FromInt(4));
  EXPECT_EQ(agg.Finalize(AggregateFunc::kAvg).value(),
            Decimal::Parse("2.5").value());

  AggItem extremum;
  extremum.seq = 0;
  extremum.value = Decimal::Parse("3.5").value();
  EXPECT_EQ(extremum.Finalize(AggregateFunc::kMin).value(),
            Decimal::Parse("3.5").value());

  AggItem empty;
  empty.seq = 0;
  empty.sum = Decimal();
  empty.count = 0;
  EXPECT_TRUE(empty.Finalize(AggregateFunc::kAvg).status().IsOutOfRange());
  AggItem no_value;
  no_value.seq = 0;
  EXPECT_TRUE(
      no_value.Finalize(AggregateFunc::kMax).status().IsOutOfRange());
}

TEST(AggItemTest, ParseRejectsMalformed) {
  xml::XmlNode wrong("notwagg");
  EXPECT_FALSE(ParseAggItem(wrong).ok());
  xml::XmlNode no_seq("wagg");
  EXPECT_FALSE(ParseAggItem(no_seq).ok());
  xml::XmlNode bad_seq("wagg");
  bad_seq.AddLeaf("seq", "1.5");
  EXPECT_FALSE(ParseAggItem(bad_seq).ok());
}

TEST(WindowAggTest, TumblingCountWindowSums) {
  OperatorGraph graph;
  auto* agg = graph.Add<WindowAggOp>("agg", AggregateFunc::kSum, P("x"),
                                     WindowSpec::Count(3).value());
  auto* sink = graph.Add<SinkOp>("sink", true);
  agg->AddDownstream(sink);

  std::vector<ItemPtr> items;
  for (int i = 1; i <= 7; ++i) items.push_back(TimedItem(i, i));
  ASSERT_TRUE(RunStream(agg, items).ok());

  std::vector<AggItem> results = Collect(*sink);
  // Windows [1,2,3] and [4,5,6] complete; the partial [7] flushes at end.
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(*results[0].sum, Decimal::Parse("6.0").value());
  EXPECT_EQ(*results[0].count, 3);
  EXPECT_EQ(*results[1].sum, Decimal::Parse("15.0").value());
  EXPECT_EQ(*results[2].sum, Decimal::Parse("7.0").value());
  EXPECT_EQ(*results[2].count, 1);
}

TEST(WindowAggTest, SlidingCountWindowOverlaps) {
  OperatorGraph graph;
  auto* agg = graph.Add<WindowAggOp>("agg", AggregateFunc::kSum, P("x"),
                                     WindowSpec::Count(4, 2).value());
  auto* sink = graph.Add<SinkOp>("sink", true);
  agg->AddDownstream(sink);
  std::vector<ItemPtr> items;
  for (int i = 1; i <= 8; ++i) items.push_back(TimedItem(i, 1.0));
  ASSERT_TRUE(RunStream(agg, items).ok());
  std::vector<AggItem> results = Collect(*sink);
  // Windows at items [0,4), [2,6), [4,8) complete with 4 items each; the
  // final partial [6,8) flushes with 2.
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(*results[0].count, 4);
  EXPECT_EQ(*results[1].count, 4);
  EXPECT_EQ(*results[2].count, 4);
  EXPECT_EQ(*results[3].count, 2);
}

TEST(WindowAggTest, SamplingCountWindowSkipsItems) {
  // Window of 2 items every 4 items: items 2,3 (0-based) fall between
  // windows.
  OperatorGraph graph;
  auto* agg = graph.Add<WindowAggOp>("agg", AggregateFunc::kCount, P("x"),
                                     WindowSpec::Count(2, 4).value());
  auto* sink = graph.Add<SinkOp>("sink", true);
  agg->AddDownstream(sink);
  std::vector<ItemPtr> items;
  for (int i = 0; i < 8; ++i) items.push_back(TimedItem(i, i));
  ASSERT_TRUE(RunStream(agg, items).ok());
  std::vector<AggItem> results = Collect(*sink);
  ASSERT_GE(results.size(), 2u);
  EXPECT_EQ(*results[0].count, 2);
  EXPECT_EQ(*results[1].count, 2);
}

TEST(WindowAggTest, TimeWindowsAnchoredAtZero) {
  OperatorGraph graph;
  auto* agg = graph.Add<WindowAggOp>(
      "agg", AggregateFunc::kAvg, P("x"),
      WindowSpec::Diff(P("t"), Decimal::FromInt(20), Decimal::FromInt(10))
          .value());
  auto* sink = graph.Add<SinkOp>("sink", true);
  agg->AddDownstream(sink);

  // Items at t = 5, 15, 25, 35: window 0 = [0,20) holds {5,15},
  // window 1 = [10,30) holds {15,25}, window 2 = [20,40) holds {25,35}.
  ASSERT_TRUE(RunStream(agg, {TimedItem(5, 1), TimedItem(15, 2),
                              TimedItem(25, 3), TimedItem(35, 4)})
                  .ok());
  std::vector<AggItem> results = Collect(*sink);
  ASSERT_GE(results.size(), 2u);
  EXPECT_EQ(results[0].seq, 0);
  EXPECT_EQ(*results[0].sum, Decimal::Parse("3.0").value());
  EXPECT_EQ(*results[0].count, 2);
  EXPECT_EQ(results[1].seq, 1);
  EXPECT_EQ(*results[1].sum, Decimal::Parse("5.0").value());
}

TEST(WindowAggTest, EmptyTimeWindowsAreEmittedForContinuity) {
  OperatorGraph graph;
  auto* agg = graph.Add<WindowAggOp>(
      "agg", AggregateFunc::kSum, P("x"),
      WindowSpec::Diff(P("t"), Decimal::FromInt(10)).value());
  auto* sink = graph.Add<SinkOp>("sink", true);
  agg->AddDownstream(sink);
  // A gap: items at t=5 and t=35; windows [10,20) and [20,30) are empty.
  ASSERT_TRUE(
      RunStream(agg, {TimedItem(5, 1), TimedItem(35, 2)}).ok());
  std::vector<AggItem> results = Collect(*sink);
  ASSERT_EQ(results.size(), 4u);  // [0,10) [10,20) [20,30) + flush [30,40)
  EXPECT_EQ(*results[1].count, 0);
  EXPECT_EQ(*results[2].count, 0);
  EXPECT_EQ(results[3].seq, 3);
  EXPECT_EQ(*results[3].count, 1);
}

TEST(WindowAggTest, StreamStartingLateFastForwards) {
  OperatorGraph graph;
  auto* agg = graph.Add<WindowAggOp>(
      "agg", AggregateFunc::kSum, P("x"),
      WindowSpec::Diff(P("t"), Decimal::FromInt(10)).value());
  auto* sink = graph.Add<SinkOp>("sink", true);
  agg->AddDownstream(sink);
  // First item at t = 1000: no flood of empty windows for [0,1000).
  ASSERT_TRUE(
      RunStream(agg, {TimedItem(1000, 1), TimedItem(1011, 2)}).ok());
  std::vector<AggItem> results = Collect(*sink);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].seq, 100);
  EXPECT_EQ(results[1].seq, 101);
}

TEST(WindowAggTest, UnsortedTimeStreamIsRejected) {
  OperatorGraph graph;
  auto* agg = graph.Add<WindowAggOp>(
      "agg", AggregateFunc::kSum, P("x"),
      WindowSpec::Diff(P("t"), Decimal::FromInt(10)).value());
  auto* sink = graph.Add<SinkOp>("sink");
  agg->AddDownstream(sink);
  ASSERT_TRUE(agg->Push(TimedItem(20, 1)).ok());
  Status status = agg->Push(TimedItem(10, 2));
  EXPECT_TRUE(status.IsInvalidArgument()) << status;
}

TEST(WindowAggTest, MinMaxCarryExtremum) {
  OperatorGraph graph;
  auto* min_agg = graph.Add<WindowAggOp>("min", AggregateFunc::kMin, P("x"),
                                         WindowSpec::Count(3).value());
  auto* max_agg = graph.Add<WindowAggOp>("max", AggregateFunc::kMax, P("x"),
                                         WindowSpec::Count(3).value());
  auto* min_sink = graph.Add<SinkOp>("s1", true);
  auto* max_sink = graph.Add<SinkOp>("s2", true);
  min_agg->AddDownstream(min_sink);
  max_agg->AddDownstream(max_sink);
  std::vector<ItemPtr> items{TimedItem(1, 5), TimedItem(2, 2),
                             TimedItem(3, 9)};
  ASSERT_TRUE(RunStream(min_agg, items).ok());
  ASSERT_TRUE(RunStream(max_agg, items).ok());
  EXPECT_EQ(*Collect(*min_sink)[0].value, Decimal::Parse("2.0").value());
  EXPECT_EQ(*Collect(*max_sink)[0].value, Decimal::Parse("9.0").value());
}

TEST(AggCombineTest, PaperFig5Recombination) {
  // Fine: |t diff 20 step 10| (Q3); coarse: |t diff 60 step 40| (Q4).
  WindowSpec fine =
      WindowSpec::Diff(P("t"), Decimal::FromInt(20), Decimal::FromInt(10))
          .value();
  WindowSpec coarse =
      WindowSpec::Diff(P("t"), Decimal::FromInt(60), Decimal::FromInt(40))
          .value();

  OperatorGraph graph;
  auto* fine_agg =
      graph.Add<WindowAggOp>("fine", AggregateFunc::kAvg, P("x"), fine);
  auto* combine =
      graph.Add<AggCombineOp>("combine", AggregateFunc::kAvg, fine, coarse);
  auto* combined_sink = graph.Add<SinkOp>("cs", true);
  fine_agg->AddDownstream(combine);
  combine->AddDownstream(combined_sink);

  auto* direct_agg =
      graph.Add<WindowAggOp>("direct", AggregateFunc::kAvg, P("x"), coarse);
  auto* direct_sink = graph.Add<SinkOp>("ds", true);
  direct_agg->AddDownstream(direct_sink);

  std::vector<ItemPtr> items;
  for (int t = 0; t < 400; t += 3) {
    items.push_back(TimedItem(t, (t * 7) % 13));
  }
  ASSERT_TRUE(RunStream(fine_agg, items).ok());
  ASSERT_TRUE(RunStream(direct_agg, items).ok());

  std::vector<AggItem> combined = Collect(*combined_sink);
  std::vector<AggItem> direct = Collect(*direct_sink);
  ASSERT_GT(combined.size(), 2u);
  // Every recombined window must equal the directly computed one (modulo
  // trailing windows the direct variant flushed at end-of-stream).
  ASSERT_LE(combined.size(), direct.size());
  for (size_t i = 0; i < combined.size(); ++i) {
    EXPECT_EQ(combined[i].seq, direct[i].seq);
    EXPECT_EQ(*combined[i].sum, *direct[i].sum) << "window " << i;
    EXPECT_EQ(*combined[i].count, *direct[i].count) << "window " << i;
  }
}

struct CombineCase {
  int fine_size, fine_step, coarse_size, coarse_step;
};

class CombineSweep : public ::testing::TestWithParam<CombineCase> {};

TEST_P(CombineSweep, RecombinationMatchesDirectAggregation) {
  const CombineCase& c = GetParam();
  WindowSpec fine = WindowSpec::Diff(P("t"), Decimal::FromInt(c.fine_size),
                                     Decimal::FromInt(c.fine_step))
                        .value();
  WindowSpec coarse =
      WindowSpec::Diff(P("t"), Decimal::FromInt(c.coarse_size),
                       Decimal::FromInt(c.coarse_step))
          .value();
  // The stream's first item lies inside fine window 0, past its end, or
  // several coarse windows in: every fine window the fine aggregate
  // fast-forwarded past counts as empty, as it does for the direct one.
  for (double start : {0.5, 25.0, 77.5}) {
    SCOPED_TRACE("first item at t=" + std::to_string(start));
    for (AggregateFunc func :
         {AggregateFunc::kSum, AggregateFunc::kCount, AggregateFunc::kAvg,
          AggregateFunc::kMin, AggregateFunc::kMax}) {
      OperatorGraph graph;
      auto* fine_agg = graph.Add<WindowAggOp>("f", func, P("x"), fine);
      auto* combine = graph.Add<AggCombineOp>("c", func, fine, coarse);
      auto* cs = graph.Add<SinkOp>("cs", true);
      fine_agg->AddDownstream(combine);
      combine->AddDownstream(cs);
      auto* direct = graph.Add<WindowAggOp>("d", func, P("x"), coarse);
      auto* ds = graph.Add<SinkOp>("ds", true);
      direct->AddDownstream(ds);

      std::vector<ItemPtr> items;
      for (int t = 0; t < 600; t += 2) {
        items.push_back(TimedItem(t + start, (t * 11) % 17));
      }
      ASSERT_TRUE(RunStream(fine_agg, items).ok());
      ASSERT_TRUE(RunStream(direct, items).ok());
      std::vector<AggItem> combined = Collect(*cs);
      std::vector<AggItem> reference = Collect(*ds);
      ASSERT_GT(combined.size(), 0u);
      ASSERT_EQ(combined.size(), reference.size());
      for (size_t i = 0; i < combined.size(); ++i) {
        EXPECT_EQ(combined[i].seq, reference[i].seq);
        if (func == AggregateFunc::kMin || func == AggregateFunc::kMax) {
          EXPECT_EQ(combined[i].value, reference[i].value)
              << "func " << static_cast<int>(func) << " window " << i;
        } else {
          EXPECT_EQ(combined[i].sum, reference[i].sum)
              << "func " << static_cast<int>(func) << " window " << i;
          EXPECT_EQ(combined[i].count, reference[i].count);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    WindowPairs, CombineSweep,
    ::testing::Values(CombineCase{20, 10, 60, 40},   // the paper's pair
                      CombineCase{20, 10, 20, 10},   // identity
                      CombineCase{10, 10, 50, 20},   // tumbling fine
                      CombineCase{20, 10, 40, 10},   // same step
                      CombineCase{20, 10, 40, 20},   // same shape, 2x
                      CombineCase{10, 5, 30, 30},    // tumbling coarse
                      CombineCase{10, 10, 100, 50}));

// A deployment rebuilt mid-stream anchors every window operator at the
// first window starting at or after its first item. The resumed
// combiner must skip the coarse windows whose early parts it never
// sees (gap, not garbage) and then agree with a resumed direct
// aggregation window for window.
TEST(AggCombineTest, ResumedCombinerSkipsWindowsItCannotComplete) {
  WindowSpec fine =
      WindowSpec::Diff(P("t"), Decimal::FromInt(20), Decimal::FromInt(10))
          .value();
  WindowSpec coarse =
      WindowSpec::Diff(P("t"), Decimal::FromInt(40), Decimal::FromInt(20))
          .value();
  OperatorGraph graph;
  auto* fine_agg = graph.Add<WindowAggOp>("f", AggregateFunc::kMin, P("x"),
                                          fine, /*resume=*/true);
  auto* combine = graph.Add<AggCombineOp>("c", AggregateFunc::kMin, fine,
                                          coarse, /*resume=*/true);
  auto* cs = graph.Add<SinkOp>("cs", true);
  fine_agg->AddDownstream(combine);
  combine->AddDownstream(cs);
  auto* direct = graph.Add<WindowAggOp>("d", AggregateFunc::kMin, P("x"),
                                        coarse, /*resume=*/true);
  auto* ds = graph.Add<SinkOp>("ds", true);
  direct->AddDownstream(ds);

  std::vector<ItemPtr> items;
  for (int t = 25; t < 400; t += 3) {
    items.push_back(TimedItem(t, (t * 7) % 13));
  }
  ASSERT_TRUE(RunStream(fine_agg, items).ok());
  ASSERT_TRUE(RunStream(direct, items).ok());
  std::vector<AggItem> combined = Collect(*cs);
  std::vector<AggItem> reference = Collect(*ds);
  ASSERT_FALSE(combined.empty());
  ASSERT_EQ(combined.size(), reference.size());
  EXPECT_EQ(combined[0].seq, 2);  // coarse windows 0 and 1 need parts < 30
  for (size_t i = 0; i < combined.size(); ++i) {
    EXPECT_EQ(combined[i].seq, reference[i].seq);
    EXPECT_EQ(combined[i].value, reference[i].value) << "window " << i;
  }
}

TEST(AggFilterTest, FiltersOnFinalizedValue) {
  OperatorGraph graph;
  auto* filter = graph.Add<AggFilterOp>(
      "filter", AggregateFunc::kAvg,
      std::vector<predicate::AtomicPredicate>{
          predicate::AtomicPredicate::Compare(
              properties::AggregateValuePath(),
              predicate::ComparisonOp::kGe, Decimal::Parse("1.3").value()),
      });
  auto* sink = graph.Add<SinkOp>("sink", true);
  filter->AddDownstream(sink);

  AggItem high;
  high.seq = 0;
  high.sum = Decimal::Parse("3.0").value();
  high.count = 2;  // avg 1.5 ≥ 1.3 → pass
  AggItem low;
  low.seq = 1;
  low.sum = Decimal::Parse("2.0").value();
  low.count = 2;  // avg 1.0 < 1.3 → drop
  AggItem empty;
  empty.seq = 2;
  empty.sum = Decimal();
  empty.count = 0;  // empty window → drop silently

  ASSERT_TRUE(RunStream(filter, {MakeAggItem(high), MakeAggItem(low),
                                 MakeAggItem(empty)})
                  .ok());
  ASSERT_EQ(sink->item_count(), 1u);
  EXPECT_EQ(Collect(*sink)[0].seq, 0);
}

}  // namespace
}  // namespace streamshare::engine
