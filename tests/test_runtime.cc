// The partitioned runtime's contract, on every channel (in-process,
// loopback wire, TCP wire with worker threads): results item-for-item
// identical to the serial executor (per-stream order preserved), merged
// metrics equal to serial metrics, backpressure on tiny queues and
// credit windows without deadlock, the serial wiring restored, and clean
// error propagation across workers. Process mode and fault injection
// live in test_transport_runner.cc.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/executor.h"
#include "engine/link_queue.h"
#include "engine/runtime.h"
#include "transport/loopback.h"
#include "transport/runner.h"
#include "transport/tcp.h"
#include "workload/scenario.h"

namespace streamshare {
namespace {

using engine::ItemPtr;
using engine::LinkQueue;
using engine::Operator;
using engine::ParallelOptions;

ItemPtr Leaf(const std::string& name, const std::string& text) {
  auto node = std::make_unique<xml::XmlNode>(name);
  node->set_text(text);
  return engine::MakeItem(std::move(node));
}

/// One-item queue entry (the granularity these queue tests exercise).
LinkQueue::Entry SingleEntry(Operator* target, const ItemPtr& item) {
  LinkQueue::Entry entry;
  entry.target = target;
  entry.batch.AppendItem(item, /*adopt=*/false);
  return entry;
}

TEST(LinkQueueTest, BoundedFifoAcrossThreads) {
  LinkQueue queue(/*capacity=*/4);
  engine::OperatorGraph graph;
  Operator* target = graph.Add<engine::PassOp>("t");

  constexpr int kCount = 1000;
  std::thread producer([&] {
    for (int i = 0; i < kCount; ++i) {
      queue.Push(SingleEntry(target, Leaf("n", std::to_string(i))));
    }
    queue.Push(LinkQueue::Entry{});  // pill
  });

  std::vector<LinkQueue::Entry> batch;
  int next = 0;
  bool done = false;
  while (!done) {
    batch.clear();
    queue.PopBatch(&batch, 16);
    EXPECT_LE(batch.size(), 16u);
    for (LinkQueue::Entry& entry : batch) {
      if (entry.target == nullptr) {
        done = true;
        continue;
      }
      EXPECT_EQ(entry.batch.Materialize(0)->text(), std::to_string(next));
      ++next;
    }
  }
  producer.join();
  EXPECT_EQ(next, kCount);
  EXPECT_EQ(queue.pushed_count(), static_cast<uint64_t>(kCount + 1));
  // Capacity 4 against 1000 items: the producer must have hit a full
  // queue at least once.
  EXPECT_GT(queue.producer_blocked_ns(), 0u);
}

TEST(LinkQueueTest, PushBatchKeepsOrderAndRespectsCapacity) {
  LinkQueue queue(/*capacity=*/2);
  engine::OperatorGraph graph;
  Operator* target = graph.Add<engine::PassOp>("t");

  std::vector<LinkQueue::Entry> batch;
  for (int i = 0; i < 100; ++i) {
    batch.push_back(SingleEntry(target, Leaf("n", std::to_string(i))));
  }
  std::thread producer([&] { queue.PushBatch(&batch); });

  std::vector<LinkQueue::Entry> out;
  while (out.size() < 100) {
    queue.PopBatch(&out, 7);
  }
  producer.join();
  ASSERT_EQ(out.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(out[i].batch.Materialize(0)->text(), std::to_string(i));
  }
  EXPECT_TRUE(batch.empty());  // consumed by PushBatch
}

TEST(LinkQueueTest, ResetStatsZeroesEveryCounter) {
  LinkQueue queue(/*capacity=*/4);
  engine::OperatorGraph graph;
  Operator* target = graph.Add<engine::PassOp>("t");

  // First "run": generate some traffic, including a blocked producer.
  std::thread producer([&] {
    for (int i = 0; i < 50; ++i) {
      queue.Push(SingleEntry(target, Leaf("n", std::to_string(i))));
    }
  });
  std::vector<LinkQueue::Entry> batch;
  size_t popped = 0;
  while (popped < 50) {
    batch.clear();
    queue.PopBatch(&batch, 8);
    popped += batch.size();
  }
  producer.join();
  EXPECT_EQ(queue.pushed_count(), 50u);
  EXPECT_GT(queue.max_depth(), 0u);

  // A queue reused for the next run reports per-run stats, not all-time.
  queue.ResetStats();
  EXPECT_EQ(queue.pushed_count(), 0u);
  EXPECT_EQ(queue.producer_blocked_ns(), 0u);
  EXPECT_EQ(queue.consumer_blocked_ns(), 0u);
  EXPECT_EQ(queue.max_depth(), 0u);

  queue.Push(SingleEntry(target, Leaf("n", "after")));
  EXPECT_EQ(queue.pushed_count(), 1u);
  EXPECT_EQ(queue.max_depth(), 1u);
  batch.clear();
  queue.PopBatch(&batch, 8);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].batch.Materialize(0)->text(), "after");
}

TEST(RunStreamsTest, SkipsExhaustedStreamsRoundRobin) {
  engine::OperatorGraph graph;
  auto* sink_a = graph.Add<engine::SinkOp>("a", /*keep_items=*/true);
  auto* sink_b = graph.Add<engine::SinkOp>("b", /*keep_items=*/true);
  // Unequal lengths: stream B exhausts first, A must keep flowing.
  std::vector<ItemPtr> a_items, b_items;
  for (int i = 0; i < 5; ++i) a_items.push_back(Leaf("a", std::to_string(i)));
  for (int i = 0; i < 2; ++i) b_items.push_back(Leaf("b", std::to_string(i)));
  ASSERT_TRUE(
      engine::RunStreams({sink_a, sink_b}, {a_items, b_items}).ok());
  ASSERT_EQ(sink_a->item_count(), 5u);
  ASSERT_EQ(sink_b->item_count(), 2u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(sink_a->items()[i]->text(), std::to_string(i));
  }
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(sink_b->items()[i]->text(), std::to_string(i));
  }
}

/// The cross-worker channel under test: "in-process", or the wire over
/// "loopback" or "tcp-threads" (TCP with every worker a thread of this
/// process).
class PartitionedRuntimeTest : public ::testing::TestWithParam<std::string> {
 protected:
  bool wire() const { return GetParam() != "in-process"; }
  std::string transport_name() const {
    return GetParam() == "tcp-threads" ? "tcp" : GetParam();
  }

  /// A system config running this channel. The in-process worker cap is
  /// pinned: the default (hardware_concurrency) would coalesce everything
  /// into one worker on a single-core runner, and these tests are about
  /// multi-worker equivalence. The wire keeps one worker per peer.
  sharing::SystemConfig Config() const {
    sharing::SystemConfig config;
    config.keep_results = true;
    if (wire()) {
      config.executor = sharing::ExecutorKind::kTransport;
      config.transport = transport_name();
    } else {
      config.executor = sharing::ExecutorKind::kParallel;
      config.parallel.max_workers = 8;
    }
    return config;
  }

  /// Runs a hand-built graph on this channel; `wire_stats` receives the
  /// wire's traffic (untouched in-process).
  Status RunGraph(const std::vector<Operator*>& entries,
                  const std::vector<std::vector<ItemPtr>>& item_lists,
                  ParallelOptions options,
                  std::vector<engine::ParallelWorkerStats>* worker_stats =
                      nullptr,
                  transport::TransportRunStats* wire_stats = nullptr) {
    std::unique_ptr<transport::Transport> transport;
    std::unique_ptr<transport::WireChannel> channel;
    if (wire()) {
      if (transport_name() == "tcp") {
        transport = std::make_unique<transport::TcpTransport>();
      } else {
        transport = std::make_unique<transport::LoopbackTransport>();
      }
      channel = std::make_unique<transport::WireChannel>(
          transport.get(), transport::FlowOptions{}, transport::FaultPlan{});
      options.max_workers = 0;
    }
    engine::PartitionedRuntime runtime(options, channel.get());
    Status status = runtime.Run(entries, item_lists);
    if (worker_stats != nullptr) *worker_stats = runtime.worker_stats();
    if (wire_stats != nullptr && channel != nullptr) {
      *wire_stats = channel->run_stats();
    }
    return status;
  }

  /// Runs the extended-example scenario (Fig. 6: 8 super-peers, 25
  /// queries) serial and on this channel on two identically-built systems
  /// and demands item-for-item identical sink contents and equal merged
  /// metrics — the distribution mechanism must be invisible in the
  /// results.
  void ExpectMatchesSerial(const sharing::SystemConfig& config) {
    workload::ScenarioSpec scenario =
        workload::ExtendedExampleScenario(/*seed=*/11, /*query_count=*/25);

    sharing::SystemConfig serial_config;
    serial_config.keep_results = true;

    constexpr size_t kItems = 400;
    Result<workload::ScenarioRun> serial = workload::RunScenario(
        scenario, sharing::Strategy::kStreamSharing, serial_config, kItems);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    Result<workload::ScenarioRun> run = workload::RunScenario(
        scenario, sharing::Strategy::kStreamSharing, config, kItems);
    ASSERT_TRUE(run.ok()) << run.status().ToString();

    const auto& serial_regs = serial->system->registrations();
    const auto& regs = run->system->registrations();
    ASSERT_EQ(serial_regs.size(), regs.size());
    size_t sinks_with_output = 0;
    for (size_t q = 0; q < serial_regs.size(); ++q) {
      if (serial_regs[q].sink == nullptr) {
        EXPECT_EQ(regs[q].sink, nullptr);
        continue;
      }
      ASSERT_NE(regs[q].sink, nullptr);
      const auto& expect_items = serial_regs[q].sink->items();
      const auto& got_items = regs[q].sink->items();
      ASSERT_EQ(expect_items.size(), got_items.size())
          << "query " << q << " result count diverged";
      EXPECT_EQ(serial_regs[q].sink->total_bytes(),
                regs[q].sink->total_bytes())
          << "query " << q << " result bytes diverged";
      EXPECT_EQ(serial_regs[q].sink->content_hash(),
                regs[q].sink->content_hash())
          << "query " << q << " content hash diverged";
      if (!expect_items.empty()) ++sinks_with_output;
      for (size_t i = 0; i < expect_items.size(); ++i) {
        EXPECT_TRUE(expect_items[i]->Equals(*got_items[i]))
            << "query " << q << " item " << i << " diverged";
      }
    }
    EXPECT_GT(sinks_with_output, 0u) << "workload produced no output at all";

    // Merged shard metrics must equal the serial counters: bytes and
    // invocation counts exactly, work within FP merge tolerance.
    const engine::Metrics& sm = serial->system->metrics();
    const engine::Metrics& pm = run->system->metrics();
    ASSERT_EQ(sm.link_count(), pm.link_count());
    ASSERT_EQ(sm.peer_count(), pm.peer_count());
    for (size_t link = 0; link < sm.link_count(); ++link) {
      EXPECT_EQ(sm.BytesOnLink(static_cast<int>(link)),
                pm.BytesOnLink(static_cast<int>(link)))
          << "link " << link;
    }
    for (size_t peer = 0; peer < sm.peer_count(); ++peer) {
      EXPECT_EQ(sm.OperatorInvocationsAtPeer(static_cast<int>(peer)),
                pm.OperatorInvocationsAtPeer(static_cast<int>(peer)))
          << "peer " << peer;
      EXPECT_NEAR(sm.WorkAtPeer(static_cast<int>(peer)),
                  pm.WorkAtPeer(static_cast<int>(peer)),
                  1e-6 * (1.0 + sm.WorkAtPeer(static_cast<int>(peer))))
          << "peer " << peer;
    }

    // The deployment spans several peers, so the run must actually have
    // been partitioned across more than one worker.
    EXPECT_GT(run->system->parallel_stats().size(), 1u);
    if (!wire()) return;

    // The run went over the wire, with measured traffic on the cross
    // edges.
    const transport::TransportRunStats& stats =
        run->system->transport_stats();
    EXPECT_EQ(stats.transport, transport_name());
    EXPECT_EQ(stats.process_count, 0u);
    EXPECT_FALSE(stats.edges.empty());
    EXPECT_FALSE(stats.channels.empty());
    uint64_t items_crossed = 0, encoded_bytes = 0;
    for (const transport::EdgeTrafficStats& edge : stats.edges) {
      items_crossed += edge.items;
      encoded_bytes += edge.encoded_bytes;
    }
    EXPECT_GT(items_crossed, 0u);
    EXPECT_GT(encoded_bytes, 0u);
    uint64_t frames = 0;
    for (const transport::ChannelTrafficStats& channel : stats.channels) {
      frames += channel.stats.frames_sent;
    }
    EXPECT_EQ(frames, items_crossed)
        << "every cross-edge item travels as exactly one DATA frame";
  }
};

TEST_P(PartitionedRuntimeTest, MatchesSerialOnExtendedWorkload) {
  ExpectMatchesSerial(Config());
}

TEST_P(PartitionedRuntimeTest, TinyQueueBackpressureWithoutDeadlock) {
  // Capacity-1 queues, one item per handoff and a 2-credit window: every
  // handoff stalls, locally and across the wire, and the run must still
  // complete with serial-identical results.
  sharing::SystemConfig config = Config();
  config.parallel.queue_capacity = 1;
  config.parallel.batch_size = 1;
  config.flow.initial_credits = 2;
  ExpectMatchesSerial(config);
  if (!wire()) return;
  // ExpectMatchesSerial ran on a fresh system; a second one exposes the
  // channel stats of a squeezed run.
  Result<workload::ScenarioRun> run = workload::RunScenario(
      workload::ExtendedExampleScenario(/*seed=*/11, /*query_count=*/10),
      sharing::Strategy::kStreamSharing, config, /*items=*/150);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  uint64_t stalls = 0;
  for (const auto& channel : run->system->transport_stats().channels) {
    stalls += channel.stats.credit_stalls;
  }
  EXPECT_GT(stalls, 0u) << "a 2-credit window never stalling is a bug";
}

/// Two peers joined by one link: entry and link op bill peer 0, the op
/// after the link bills peer 1 — the edge between them crosses a worker
/// boundary, so every item travels the channel.
struct TwoPeerGraph {
  network::Topology topology;
  network::NodeId p0 = -1, p1 = -1;
  network::LinkId link = -1;
  engine::OperatorGraph graph;
  std::unique_ptr<engine::Metrics> metrics;
  Operator* entry = nullptr;
  engine::SinkOp* sink = nullptr;

  /// entry(p0) → link(p0→p1) → `remote`(p1) → sink.
  template <typename RemoteOp, typename... Args>
  explicit TwoPeerGraph(std::in_place_type_t<RemoteOp>, Args&&... args) {
    p0 = topology.AddPeer("SP0");
    p1 = topology.AddPeer("SP1");
    link = *topology.AddLink(p0, p1);
    metrics = std::make_unique<engine::Metrics>(topology);
    auto* entry_op = graph.Add<engine::PassOp>("entry");
    auto* link_op = graph.Add<engine::LinkOp>("link", metrics.get(), link);
    auto* remote = graph.Add<RemoteOp>(std::forward<Args>(args)...);
    sink = graph.Add<engine::SinkOp>("sink", /*keep_items=*/true);
    entry_op->SetAccounting(metrics.get(), p0, 1.0);
    link_op->SetAccounting(metrics.get(), p0, 0.5);
    remote->SetAccounting(metrics.get(), p1, 2.0);
    entry_op->AddDownstream(link_op);
    link_op->AddDownstream(remote);
    remote->AddDownstream(sink);
    entry = entry_op;
  }

  std::vector<std::vector<Operator*>> Wiring() const {
    std::vector<std::vector<Operator*>> wiring;
    for (Operator* op = entry; op != nullptr;
         op = op->downstreams().empty() ? nullptr : op->downstreams()[0]) {
      wiring.push_back(op->downstreams());
    }
    return wiring;
  }
};

TEST_P(PartitionedRuntimeTest, RestoresSerialWiringAndShardedMetrics) {
  // The cross edge gets a port spliced in for the run. Afterwards the
  // downstream lists must be byte-for-byte the serial wiring again, and
  // the merged metrics must equal a serial run's.
  std::vector<ItemPtr> items;
  for (int i = 0; i < 200; ++i) items.push_back(Leaf("n", std::to_string(i)));

  TwoPeerGraph serial(std::in_place_type<engine::PassOp>, "remote");
  ASSERT_TRUE(engine::RunStream(serial.entry, items).ok());

  TwoPeerGraph g(std::in_place_type<engine::PassOp>, "remote");
  std::vector<std::vector<Operator*>> before = g.Wiring();
  ParallelOptions options;
  options.max_workers = 4;     // don't coalesce on single-core runners
  options.queue_capacity = 8;  // force some backpressure
  std::vector<engine::ParallelWorkerStats> worker_stats;
  transport::TransportRunStats wire_stats;
  ASSERT_TRUE(
      RunGraph({g.entry}, {items}, options, &worker_stats, &wire_stats).ok());
  EXPECT_EQ(worker_stats.size(), 2u);
  EXPECT_EQ(before, g.Wiring());

  ASSERT_EQ(g.sink->item_count(), 200u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(g.sink->items()[i]->text(), std::to_string(i));
  }
  const engine::Metrics& m = *g.metrics;
  const engine::Metrics& sm = *serial.metrics;
  EXPECT_EQ(m.BytesOnLink(g.link), sm.BytesOnLink(serial.link));
  EXPECT_EQ(m.OperatorInvocationsAtPeer(g.p0),
            sm.OperatorInvocationsAtPeer(serial.p0));
  EXPECT_EQ(m.OperatorInvocationsAtPeer(g.p1),
            sm.OperatorInvocationsAtPeer(serial.p1));
  EXPECT_DOUBLE_EQ(m.WorkAtPeer(g.p0), sm.WorkAtPeer(serial.p0));
  EXPECT_DOUBLE_EQ(m.WorkAtPeer(g.p1), sm.WorkAtPeer(serial.p1));
  if (!wire()) return;
  // The cross edge is attributed to the topology link the LinkOp rides.
  ASSERT_EQ(wire_stats.edges.size(), 1u);
  EXPECT_EQ(wire_stats.edges[0].link, g.link);
  EXPECT_EQ(wire_stats.edges[0].items, 200u);
}

/// An operator that fails after a fixed number of items — exercises error
/// propagation out of a worker thread.
class FailAfterOp final : public Operator {
 public:
  FailAfterOp(std::string label, int fail_after)
      : Operator(std::move(label)), remaining_(fail_after) {}

 protected:
  Status Process(const ItemPtr& item) override {
    if (remaining_-- <= 0) {
      return Status::Internal("injected failure");
    }
    return Emit(item);
  }

 private:
  int remaining_;
};

TEST_P(PartitionedRuntimeTest, PropagatesOperatorErrorWithoutHanging) {
  // The failing operator lives downstream of the cross edge; its error
  // must travel back out of the worker without wedging any channel.
  TwoPeerGraph g(std::in_place_type<FailAfterOp>, "fail", 10);
  std::vector<ItemPtr> items;
  for (int i = 0; i < 1000; ++i) items.push_back(Leaf("n", "x"));
  Status status = RunGraph({g.entry}, {items}, ParallelOptions());
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("injected failure"), std::string::npos)
      << status.ToString();
}

TEST_P(PartitionedRuntimeTest, EmptyStreamStillFinishes) {
  TwoPeerGraph g(std::in_place_type<engine::PassOp>, "remote");
  ASSERT_TRUE(RunGraph({g.entry}, {{}}, ParallelOptions()).ok());
  EXPECT_EQ(g.sink->item_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Channels, PartitionedRuntimeTest,
                         ::testing::Values("in-process", "loopback",
                                           "tcp-threads"));

}  // namespace
}  // namespace streamshare
