// Metrics registry: shard-merge associativity, histogram bucket edges,
// gauge semantics, snapshot/reset behavior, and counter consistency under
// genuinely concurrent increments (raw threads and the parallel
// executor's pinned-shard instrumentation).

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "engine/executor.h"
#include "engine/runtime.h"
#include "obs/metrics_registry.h"
#include "obs/obs.h"

namespace streamshare {
namespace {

using engine::ItemPtr;
using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::kMetricShards;
using obs::MetricSnapshot;
using obs::MetricsRegistry;
using obs::ScopedShard;

TEST(MetricsRegistryTest, SameNameReturnsSameMetric) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x.calls");
  Counter* b = registry.GetCounter("x.calls");
  EXPECT_EQ(a, b);
  Gauge* g1 = registry.GetGauge("x.depth");
  Gauge* g2 = registry.GetGauge("x.depth");
  EXPECT_EQ(g1, g2);
  Histogram* h1 =
      registry.GetHistogram("x.micros", Histogram::LinearBounds(1, 1, 4));
  // Bounds are fixed by the first Get; a second Get with different bounds
  // still returns the original histogram.
  Histogram* h2 =
      registry.GetHistogram("x.micros", Histogram::LinearBounds(5, 5, 2));
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h1->bounds(), Histogram::LinearBounds(1, 1, 4));
}

TEST(MetricsRegistryTest, CounterShardMergeIsOrderIndependent) {
  Counter counter;
  // Distinct value per shard so any mis-merge changes the total.
  uint64_t expected = 0;
  for (size_t shard = 0; shard < kMetricShards; ++shard) {
    uint64_t value = (shard + 1) * 17;
    counter.AddToShard(shard, value);
    expected += value;
  }
  EXPECT_EQ(counter.Value(), expected);

  // Folding by hand in two different shard orders must agree with Value():
  // the fold is a plain sum, so merge order cannot matter.
  std::vector<size_t> shards(kMetricShards);
  std::iota(shards.begin(), shards.end(), 0);
  uint64_t forward = 0;
  for (size_t shard : shards) forward += counter.ShardValue(shard);
  std::reverse(shards.begin(), shards.end());
  uint64_t backward = 0;
  for (size_t shard : shards) backward += counter.ShardValue(shard);
  EXPECT_EQ(forward, expected);
  EXPECT_EQ(backward, expected);
}

TEST(MetricsRegistryTest, ScopedShardPinsAndRestores) {
  ScopedShard outer(3);
  EXPECT_EQ(obs::CurrentShard(), 3u);
  {
    ScopedShard inner(7 + kMetricShards);  // wraps to 7
    EXPECT_EQ(obs::CurrentShard(), 7u);
  }
  EXPECT_EQ(obs::CurrentShard(), 3u);
}

TEST(MetricsRegistryTest, HistogramBucketEdgesAreInclusiveUpper) {
  Histogram histogram({1.0, 2.0, 4.0});
  ASSERT_EQ(histogram.bucket_count(), 4u);
  EXPECT_EQ(histogram.BucketFor(0.0), 0u);
  EXPECT_EQ(histogram.BucketFor(0.5), 0u);
  EXPECT_EQ(histogram.BucketFor(1.0), 0u);  // edge is inclusive
  EXPECT_EQ(histogram.BucketFor(1.0001), 1u);
  EXPECT_EQ(histogram.BucketFor(2.0), 1u);
  EXPECT_EQ(histogram.BucketFor(4.0), 2u);
  EXPECT_EQ(histogram.BucketFor(4.0001), 3u);  // overflow bucket
  EXPECT_EQ(histogram.BucketFor(1e18), 3u);

  for (double value : {0.5, 1.0, 2.0, 4.0, 9.0}) histogram.Observe(value);
  EXPECT_EQ(histogram.BucketValue(0), 2u);
  EXPECT_EQ(histogram.BucketValue(1), 1u);
  EXPECT_EQ(histogram.BucketValue(2), 1u);
  EXPECT_EQ(histogram.BucketValue(3), 1u);
  EXPECT_EQ(histogram.Count(), 5u);
  EXPECT_DOUBLE_EQ(histogram.Sum(), 16.5);
}

TEST(MetricsRegistryTest, HistogramBoundsHelpers) {
  EXPECT_EQ(Histogram::ExponentialBounds(1, 2, 4),
            (std::vector<double>{1, 2, 4, 8}));
  EXPECT_EQ(Histogram::LinearBounds(10, 5, 3),
            (std::vector<double>{10, 15, 20}));
}

TEST(MetricsRegistryTest, GaugeSetOverwritesAddAccumulates) {
  Gauge gauge;
  gauge.Set(2.5);
  gauge.Set(1.25);  // last write wins — re-exports don't double-count
  EXPECT_DOUBLE_EQ(gauge.Value(), 1.25);
  gauge.Add(0.75);
  EXPECT_DOUBLE_EQ(gauge.Value(), 2.0);
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndTyped) {
  MetricsRegistry registry;
  registry.GetCounter("b.calls")->Add(3);
  registry.GetGauge("a.depth")->Set(4.5);
  registry.GetHistogram("c.micros", {1.0, 2.0})->Observe(1.5);

  std::vector<MetricSnapshot> snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].name, "a.depth");
  EXPECT_EQ(snapshot[0].kind, MetricSnapshot::Kind::kGauge);
  EXPECT_DOUBLE_EQ(snapshot[0].value, 4.5);
  EXPECT_EQ(snapshot[1].name, "b.calls");
  EXPECT_EQ(snapshot[1].kind, MetricSnapshot::Kind::kCounter);
  EXPECT_DOUBLE_EQ(snapshot[1].value, 3.0);
  EXPECT_EQ(snapshot[2].name, "c.micros");
  EXPECT_EQ(snapshot[2].kind, MetricSnapshot::Kind::kHistogram);
  EXPECT_EQ(snapshot[2].count, 1u);
  EXPECT_DOUBLE_EQ(snapshot[2].sum, 1.5);
  ASSERT_EQ(snapshot[2].buckets.size(), 3u);
  EXPECT_EQ(snapshot[2].buckets[1], 1u);
}

TEST(MetricsRegistryTest, ResetAllZeroesButKeepsIdentities) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("r.calls");
  Histogram* histogram = registry.GetHistogram("r.micros", {1.0});
  Gauge* gauge = registry.GetGauge("r.depth");
  counter->Add(5);
  histogram->Observe(0.5);
  gauge->Set(9.0);

  registry.ResetAll();
  EXPECT_EQ(counter, registry.GetCounter("r.calls"));
  EXPECT_EQ(counter->Value(), 0u);
  EXPECT_EQ(histogram->Count(), 0u);
  EXPECT_DOUBLE_EQ(histogram->Sum(), 0.0);
  EXPECT_EQ(histogram->BucketValue(0), 0u);
  EXPECT_DOUBLE_EQ(gauge->Value(), 0.0);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsLoseNothing) {
  Counter counter;
  Histogram histogram(Histogram::LinearBounds(1, 1, 8));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &histogram, t] {
      ScopedShard pinned(static_cast<size_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        counter.Add(1);
        histogram.Observe(static_cast<double>(t % 4));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(histogram.Count(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

// ---------------- bucket-interpolating quantiles (p50/p95/p99) ----------

TEST(HistogramQuantileTest, EmptyHistogramReportsZero) {
  Histogram histogram({1.0, 2.0});
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.99), 0.0);
  EXPECT_DOUBLE_EQ(histogram.Max(), 0.0);
  EXPECT_DOUBLE_EQ(
      Histogram::QuantileFromBuckets({1.0, 2.0}, {}, 0.5, 0.0), 0.0);
}

TEST(HistogramQuantileTest, SingleBucketInterpolatesAndClampsToMax) {
  Histogram histogram({10.0});
  for (int i = 0; i < 4; ++i) histogram.Observe(5.0);
  // Rank q*4 interpolates linearly across the [0,10] bucket: rank 1 of 4
  // lands a quarter of the way in. q=0 clamps its rank up to the first
  // observation rather than reporting the impossible value 0-of-4.
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.0), 2.5);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 5.0);
  // The interpolated upper edge (10) exceeds anything actually observed;
  // the tracked max (5) caps the report.
  EXPECT_DOUBLE_EQ(histogram.Quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(histogram.Max(), 5.0);
}

TEST(HistogramQuantileTest, InterpolatesAcrossBuckets) {
  Histogram histogram({10.0, 20.0, 30.0});
  for (double value : {5.0, 15.0, 15.0, 25.0}) histogram.Observe(value);
  // rank 2 of 4 falls in the (10,20] bucket holding observations 2..3:
  // halfway through it.
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 15.0);
  // rank 3 of 4 is that bucket's last observation: its upper edge.
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.75), 20.0);
  EXPECT_DOUBLE_EQ(histogram.Max(), 25.0);
}

TEST(HistogramQuantileTest, OverflowBucketReportsTrackedMax) {
  Histogram histogram({1.0, 2.0});
  histogram.Observe(0.5);
  histogram.Observe(50.0);
  histogram.Observe(80.0);
  // p99's rank lands in the overflow bucket, which has no finite upper
  // edge: the tracked max is the honest answer.
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.99), 80.0);
  // Counts merged without a max (max_value = 0) fall back to the last
  // finite bound instead of claiming a max nobody tracked.
  EXPECT_DOUBLE_EQ(
      Histogram::QuantileFromBuckets({1.0, 2.0}, {0, 0, 3}, 0.5, 0.0),
      2.0);
}

TEST(HistogramQuantileTest, MergeCountsFoldsRemoteShardIn) {
  Histogram histogram({1.0, 2.0});
  histogram.Observe(0.5);
  // A worker process's serialized shard: bucket counts, count, sum, max.
  histogram.MergeCounts({1, 2, 1}, 4, 7.0, 5.0);
  EXPECT_EQ(histogram.Count(), 5u);
  EXPECT_DOUBLE_EQ(histogram.Sum(), 7.5);
  EXPECT_DOUBLE_EQ(histogram.Max(), 5.0);
  EXPECT_EQ(histogram.BucketValue(0), 2u);
  EXPECT_EQ(histogram.BucketValue(1), 2u);
  EXPECT_EQ(histogram.BucketValue(2), 1u);
  EXPECT_DOUBLE_EQ(histogram.Quantile(1.0), 5.0);
}

TEST(HistogramQuantileTest, SnapshotQuantileMatchesLiveHistogram) {
  MetricsRegistry registry;
  Histogram* histogram =
      registry.GetHistogram("q.micros", {10.0, 20.0, 30.0});
  for (double value : {5.0, 15.0, 15.0, 25.0}) histogram->Observe(value);
  std::vector<MetricSnapshot> snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_DOUBLE_EQ(snapshot[0].Quantile(0.5), histogram->Quantile(0.5));
  EXPECT_DOUBLE_EQ(snapshot[0].Quantile(0.99), histogram->Quantile(0.99));
  EXPECT_DOUBLE_EQ(snapshot[0].max, 25.0);
}

ItemPtr Leaf(const std::string& name, const std::string& text) {
  auto node = std::make_unique<xml::XmlNode>(name);
  node->set_text(text);
  return engine::MakeItem(std::move(node));
}

// The partitioned runtime's built-in instrumentation updates
// engine.parallel.{items,batches,batch_items} from every worker thread on
// pinned shards. Whatever the interleaving, the counters and the
// histogram must tell one consistent story: every dispatched batch is one
// batches increment, one histogram observation, and its item count summed
// into items.
TEST(MetricsRegistryTest, ParallelExecutorCountersStayConsistent) {
#if !STREAMSHARE_OBS_ENABLED
  GTEST_SKIP() << "observability compiled out";
#endif
  if (!obs::Enabled()) GTEST_SKIP() << "observability disabled";
  MetricsRegistry& registry = MetricsRegistry::Default();
  Counter* items = registry.GetCounter("engine.parallel.items");
  Counter* batches = registry.GetCounter("engine.parallel.batches");
  Histogram* batch_items = registry.GetHistogram(
      "engine.parallel.batch_items",
      Histogram::ExponentialBounds(1, 2, 12));
  const uint64_t items_before = items->Value();
  const uint64_t batches_before = batches->Value();
  const uint64_t observations_before = batch_items->Count();
  const double observed_items_before = batch_items->Sum();

  engine::OperatorGraph graph;
  auto* entry = graph.Add<engine::PassOp>("entry");
  auto* sink = graph.Add<engine::SinkOp>("sink");
  entry->AddDownstream(sink);
  std::vector<ItemPtr> fed;
  for (int i = 0; i < 500; ++i) fed.push_back(Leaf("n", std::to_string(i)));

  engine::PartitionedRuntime runtime;
  ASSERT_TRUE(runtime.Run({entry}, {fed}).ok());

  const uint64_t items_delta = items->Value() - items_before;
  const uint64_t batches_delta = batches->Value() - batches_before;
  EXPECT_GE(items_delta, 500u);
  EXPECT_GE(batches_delta, 1u);
  EXPECT_EQ(batch_items->Count() - observations_before, batches_delta);
  EXPECT_DOUBLE_EQ(batch_items->Sum() - observed_items_before,
                   static_cast<double>(items_delta));
}

}  // namespace
}  // namespace streamshare
