// The wire channel's own contract, beyond what test_runtime.cc checks on
// every channel: fault-injection symptoms, and process mode — results
// and merged metrics identical to a serial run with every worker
// fork()ed into its own OS process (outside TSAN), sink content hashes
// that survive the cross-process report, and errors that travel out of
// a child.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "engine/metrics.h"
#include "engine/operator.h"
#include "engine/runtime.h"
#include "network/topology.h"
#include "transport/loopback.h"
#include "transport/runner.h"
#include "transport/tcp.h"
#include "workload/scenario.h"

// fork() and TSAN don't mix: TSAN's runtime owns threads the child
// can't inherit safely. Process-mode cases run everywhere else.
#if defined(__SANITIZE_THREAD__)
#define STREAMSHARE_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define STREAMSHARE_TSAN 1
#endif
#endif
#ifndef STREAMSHARE_TSAN
#define STREAMSHARE_TSAN 0
#endif

namespace streamshare {
namespace {

using engine::ItemPtr;
using engine::Operator;
using transport::LoopbackTransport;
using transport::TcpTransport;
using transport::WireChannel;

ItemPtr Leaf(const std::string& name, const std::string& text) {
  auto node = std::make_unique<xml::XmlNode>(name);
  node->set_text(text);
  return engine::MakeItem(std::move(node));
}

/// Runs the extended-example scenario (Fig. 6: 8 super-peers, 25
/// queries) serial and over TCP with one OS process per worker on two
/// identically built systems and demands identical sink contents and
/// equal merged metrics — the acceptance bar from the paper repro: the
/// distribution mechanism must be invisible in the results.
TEST(TransportRunnerTest, MatchesSerialOnExtendedWorkload) {
#if STREAMSHARE_TSAN
  GTEST_SKIP() << "process mode forks, which TSAN does not support";
#endif
  workload::ScenarioSpec scenario =
      workload::ExtendedExampleScenario(/*seed=*/11, /*query_count=*/25);

  sharing::SystemConfig serial_config;
  serial_config.keep_results = true;

  sharing::SystemConfig transport_config = serial_config;
  transport_config.executor = sharing::ExecutorKind::kTransport;
  transport_config.transport = "tcp";
  transport_config.transport_processes = true;

  constexpr size_t kItems = 300;
  Result<workload::ScenarioRun> serial = workload::RunScenario(
      scenario, sharing::Strategy::kStreamSharing, serial_config, kItems);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  Result<workload::ScenarioRun> over_wire =
      workload::RunScenario(scenario, sharing::Strategy::kStreamSharing,
                            transport_config, kItems);
  ASSERT_TRUE(over_wire.ok()) << over_wire.status().ToString();

  const auto& serial_regs = serial->system->registrations();
  const auto& wire_regs = over_wire->system->registrations();
  ASSERT_EQ(serial_regs.size(), wire_regs.size());
  size_t sinks_with_output = 0;
  for (size_t q = 0; q < serial_regs.size(); ++q) {
    if (serial_regs[q].sink == nullptr) {
      EXPECT_EQ(wire_regs[q].sink, nullptr);
      continue;
    }
    ASSERT_NE(wire_regs[q].sink, nullptr);
    EXPECT_EQ(serial_regs[q].sink->item_count(),
              wire_regs[q].sink->item_count())
        << "query " << q << " result count diverged";
    EXPECT_EQ(serial_regs[q].sink->total_bytes(),
              wire_regs[q].sink->total_bytes())
        << "query " << q << " result bytes diverged";
    if (serial_regs[q].sink->item_count() > 0) ++sinks_with_output;
    // The items themselves stayed in the children; the order-insensitive
    // content hash came back in the report and must match a hash of the
    // serial results.
    engine::SinkOp hasher("h");
    hasher.EnableContentHash();
    for (const ItemPtr& item : serial_regs[q].sink->items()) {
      ASSERT_TRUE(hasher.Push(item).ok());
    }
    EXPECT_EQ(hasher.content_hash(), wire_regs[q].sink->content_hash())
        << "query " << q << " content hash diverged";
  }
  EXPECT_GT(sinks_with_output, 0u) << "workload produced no output at all";

  // Merged metrics equal the serial counters (work within FP merge
  // tolerance), exactly like a thread-mode run.
  const engine::Metrics& sm = serial->system->metrics();
  const engine::Metrics& tm = over_wire->system->metrics();
  ASSERT_EQ(sm.link_count(), tm.link_count());
  ASSERT_EQ(sm.peer_count(), tm.peer_count());
  for (size_t link = 0; link < sm.link_count(); ++link) {
    EXPECT_EQ(sm.BytesOnLink(static_cast<int>(link)),
              tm.BytesOnLink(static_cast<int>(link)))
        << "link " << link;
  }
  for (size_t peer = 0; peer < sm.peer_count(); ++peer) {
    EXPECT_EQ(sm.OperatorInvocationsAtPeer(static_cast<int>(peer)),
              tm.OperatorInvocationsAtPeer(static_cast<int>(peer)))
        << "peer " << peer;
    EXPECT_NEAR(sm.WorkAtPeer(static_cast<int>(peer)),
                tm.WorkAtPeer(static_cast<int>(peer)),
                1e-6 * (1.0 + sm.WorkAtPeer(static_cast<int>(peer))))
        << "peer " << peer;
  }

  // The run went over the wire, one process per worker, with measured
  // traffic on the cross edges and queue stats from every child.
  const transport::TransportRunStats& stats =
      over_wire->system->transport_stats();
  const auto& workers = over_wire->system->parallel_stats();
  EXPECT_EQ(stats.transport, "tcp");
  EXPECT_GT(workers.size(), 1u);
  EXPECT_EQ(stats.process_count, workers.size());
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
  uint64_t entries = 0;
  for (const engine::ParallelWorkerStats& worker : workers) {
    entries += worker.entries_received;
  }
  EXPECT_GT(entries, 0u);
}

// --- Direct wire tests on a hand-built two-peer graph --------------------

struct SmallGraph {
  engine::OperatorGraph graph;
  std::unique_ptr<engine::Metrics> metrics;
  Operator* entry = nullptr;
  engine::SinkOp* sink = nullptr;
  network::LinkId link = -1;
  network::NodeId p0 = -1, p1 = -1;
};

/// entry(p0) → link(p0→p1) → remote pass(p1) → sink: the one edge
/// crosses a worker boundary, so every item travels the transport.
void BuildSmallGraph(SmallGraph* g) {
  network::Topology topology;
  g->p0 = topology.AddPeer("SP0");
  g->p1 = topology.AddPeer("SP1");
  Result<network::LinkId> link = topology.AddLink(g->p0, g->p1);
  ASSERT_TRUE(link.ok());
  g->link = *link;
  g->metrics = std::make_unique<engine::Metrics>(topology);

  auto* entry = g->graph.Add<engine::PassOp>("entry");
  auto* link_op =
      g->graph.Add<engine::LinkOp>("link", g->metrics.get(), g->link);
  auto* remote = g->graph.Add<engine::PassOp>("remote");
  auto* sink = g->graph.Add<engine::SinkOp>("sink", /*keep_items=*/true);
  entry->SetAccounting(g->metrics.get(), g->p0, 1.0);
  link_op->SetAccounting(g->metrics.get(), g->p0, 0.5);
  remote->SetAccounting(g->metrics.get(), g->p1, 2.0);
  entry->AddDownstream(link_op);
  link_op->AddDownstream(remote);
  remote->AddDownstream(sink);
  g->entry = entry;
  g->sink = sink;
}

TEST(TransportRunnerTest, DropFaultFailsTheRunCleanly) {
  SmallGraph g;
  BuildSmallGraph(&g);

  std::vector<ItemPtr> items;
  for (int i = 0; i < 50; ++i) items.push_back(Leaf("n", "x"));

  transport::FaultPlan faults;
  faults.drop_period = 10;
  LoopbackTransport transport;
  WireChannel wire(&transport, transport::FlowOptions{}, faults);
  engine::PartitionedRuntime runtime(engine::ParallelOptions(), &wire);
  Status status = runtime.Run({g.entry}, {items});
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("loss"), std::string::npos)
      << status.ToString();
}

TEST(TransportRunnerTest, DuplicateFaultIsAbsorbedByTheReceiver) {
  SmallGraph g;
  BuildSmallGraph(&g);

  std::vector<ItemPtr> items;
  for (int i = 0; i < 60; ++i) items.push_back(Leaf("n", std::to_string(i)));

  transport::FaultPlan faults;
  faults.duplicate_period = 4;
  LoopbackTransport transport;
  WireChannel wire(&transport, transport::FlowOptions{}, faults);
  engine::PartitionedRuntime runtime(engine::ParallelOptions(), &wire);
  ASSERT_TRUE(runtime.Run({g.entry}, {items}).ok());

  // Duplicates were discarded before delivery: results are untouched.
  ASSERT_EQ(g.sink->item_count(), 60u);
  for (int i = 0; i < 60; ++i) {
    EXPECT_EQ(g.sink->items()[i]->text(), std::to_string(i));
  }
  uint64_t discarded = 0;
  for (const auto& channel : wire.run_stats().channels) {
    discarded += channel.stats.duplicates_discarded;
  }
  EXPECT_EQ(discarded, 15u);  // every 4th of 60 frames
}

TEST(TransportRunnerTest, OperatorFailurePropagatesAcrossTheWire) {
#if STREAMSHARE_TSAN
  GTEST_SKIP() << "process mode forks, which TSAN does not support";
#endif
  // The failing operator lives downstream of the cross edge, in its own
  // child process; its error must travel back out of the child without
  // wedging any channel.
  class FailAfterOp final : public Operator {
   public:
    FailAfterOp(std::string label, int fail_after)
        : Operator(std::move(label)), remaining_(fail_after) {}

   protected:
    Status Process(const ItemPtr& item) override {
      if (remaining_-- <= 0) return Status::Internal("injected failure");
      return Emit(item);
    }

   private:
    int remaining_;
  };

  network::Topology topology;
  network::NodeId p0 = topology.AddPeer("SP0");
  network::NodeId p1 = topology.AddPeer("SP1");
  Result<network::LinkId> link = topology.AddLink(p0, p1);
  ASSERT_TRUE(link.ok());
  engine::Metrics metrics(topology);

  engine::OperatorGraph graph;
  auto* entry = graph.Add<engine::PassOp>("entry");
  auto* link_op = graph.Add<engine::LinkOp>("link", &metrics, *link);
  auto* fail = graph.Add<FailAfterOp>("fail", 5);
  auto* sink = graph.Add<engine::SinkOp>("sink");
  entry->SetAccounting(&metrics, p0, 1.0);
  link_op->SetAccounting(&metrics, p0, 0.5);
  fail->SetAccounting(&metrics, p1, 1.0);
  entry->AddDownstream(link_op);
  link_op->AddDownstream(fail);
  fail->AddDownstream(sink);

  std::vector<ItemPtr> items;
  for (int i = 0; i < 500; ++i) items.push_back(Leaf("n", "x"));

  TcpTransport transport;
  WireChannel wire(&transport, transport::FlowOptions{},
                   transport::FaultPlan{});
  engine::PartitionedRuntime runtime(engine::ParallelOptions(), &wire);
  Status status = transport::RunWorkerProcesses(
      &runtime, &wire, {entry}, {items}, /*adopt=*/true, /*finish=*/true);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("injected failure"), std::string::npos)
      << status.ToString();
}

TEST(TransportRunnerTest, ProcessModeRequiresForkSafeTransport) {
  SmallGraph g;
  BuildSmallGraph(&g);
  LoopbackTransport transport;  // SupportsProcesses() == false
  WireChannel wire(&transport, transport::FlowOptions{},
                   transport::FaultPlan{});
  engine::PartitionedRuntime runtime(engine::ParallelOptions(), &wire);
  Status status = transport::RunWorkerProcesses(
      &runtime, &wire, {g.entry}, {{Leaf("n", "x")}}, /*adopt=*/true,
      /*finish=*/true);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
      << status.ToString();
}

}  // namespace
}  // namespace streamshare
