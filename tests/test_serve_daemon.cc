// Behavior tests for the streamshare_serve daemon: live subscribe
// through the real planner, delivery forwarding, double-unsubscribe
// NotFound semantics, E6 admission rejection leaving the deployment
// untouched, detach/re-attach catch-up, implicit unsubscribe on
// disconnect (and on a send error to a reset client), and the
// unsupported-frame answer path.

#include <sys/socket.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/net.h"
#include "workload/scenario.h"

namespace streamshare::serve {
namespace {

workload::ScenarioSpec SmallScenario() {
  return workload::ExtendedExampleScenario(/*seed=*/11,
                                           /*query_count=*/4);
}

/// The E6 setup: capacities so tight that repeatedly data-shipping the
/// raw stream must overload a link or peer.
workload::ScenarioSpec TinyCapacityScenario() {
  workload::ScenarioSpec scenario = SmallScenario();
  scenario.name = "tiny-capacity";
  scenario.topology = network::Topology::ExtendedExample(
      /*bandwidth_kbps=*/150.0, /*max_load=*/60.0);
  return scenario;
}

std::unique_ptr<ServeDaemon> StartDaemon(
    const workload::ScenarioSpec& scenario,
    DaemonOptions options = DaemonOptions()) {
  auto daemon = std::make_unique<ServeDaemon>(scenario, options);
  Status started = daemon->Start();
  EXPECT_TRUE(started.ok()) << started;
  return started.ok() ? std::move(daemon) : nullptr;
}

ServeClient MakeClient(const ServeDaemon& daemon,
                       const std::string& name) {
  ClientOptions options;
  options.port = daemon.port();
  options.name = name;
  return ServeClient(options);
}

TEST(ServeDaemon, SubscribeFeedForwardsDeliveriesMatchingSinks) {
  workload::ScenarioSpec scenario = SmallScenario();
  auto daemon = StartDaemon(scenario);
  ASSERT_NE(daemon, nullptr);

  ServeClient client = MakeClient(*daemon, "feeder");
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_EQ(client.hello().epoch, 0u);
  EXPECT_EQ(client.hello().items_fed, 0u);

  auto q0 = client.Subscribe(scenario.queries[0].text,
                             scenario.queries[0].target);
  auto q1 = client.Subscribe(scenario.queries[1].text,
                             scenario.queries[1].target);
  ASSERT_TRUE(q0.ok()) << q0.status();
  ASSERT_TRUE(q1.ok()) << q1.status();
  ASSERT_TRUE(q0->accepted) << q0->reject_reason;
  ASSERT_TRUE(q1->accepted) << q1->reject_reason;
  EXPECT_NE(q0->query_id, q1->query_id);

  auto fed = client.Feed(200);
  ASSERT_TRUE(fed.ok()) << fed.status();
  EXPECT_EQ(fed->items_fed, 200u);

  // The daemon's own sink counters must agree with what reached the
  // client: same items, same bytes, same order-insensitive hash.
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->items_fed, 200u);
  EXPECT_EQ(stats->admitted, 2u);
  uint64_t sink_total = 0;
  for (const QueryStat& query : stats->queries) {
    ClientQueryResults results = client.results(query.query_id);
    EXPECT_EQ(results.items, query.items) << "query " << query.query_id;
    EXPECT_EQ(results.bytes, query.bytes) << "query " << query.query_id;
    EXPECT_EQ(results.content_hash, query.content_hash)
        << "query " << query.query_id;
    sink_total += query.items;
  }
  EXPECT_GT(sink_total, 0u) << "workload produced no deliveries at all";
  EXPECT_EQ(stats->results_forwarded, sink_total);

  // Deliveries carry measured latency stamps.
  ClientQueryResults r0 = client.results(q0->query_id);
  EXPECT_EQ(r0.residency_us.size(), r0.items);
  EXPECT_EQ(r0.total_us.size(), r0.items);

  auto drained = client.Drain(/*final_drain=*/true);
  ASSERT_TRUE(drained.ok()) << drained.status();
  auto eos = client.WaitEos(10000);
  ASSERT_TRUE(eos.ok()) << eos.status();
  EXPECT_TRUE(eos->final_drain);
  daemon->Join();
  EXPECT_TRUE(daemon->loop_status().ok()) << daemon->loop_status();
}

TEST(ServeDaemon, DoubleUnsubscribeReturnsNotFound) {
  workload::ScenarioSpec scenario = SmallScenario();
  auto daemon = StartDaemon(scenario);
  ASSERT_NE(daemon, nullptr);
  ServeClient client = MakeClient(*daemon, "unsub");
  ASSERT_TRUE(client.Connect().ok());

  auto q0 = client.Subscribe(scenario.queries[0].text,
                             scenario.queries[0].target);
  ASSERT_TRUE(q0.ok() && q0->accepted);

  EXPECT_TRUE(client.Unsubscribe(q0->query_id).ok());
  // Again: the id once existed but was already removed.
  Status again = client.Unsubscribe(q0->query_id);
  EXPECT_TRUE(again.IsNotFound()) << again;
  // Never registered at all.
  Status never = client.Unsubscribe(4242);
  EXPECT_TRUE(never.IsNotFound()) << never;
  // The connection survives both errors.
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_FALSE(stats->queries[0].active);

  daemon->RequestDrain(/*final_drain=*/true);
  daemon->Join();
}

TEST(ServeDaemon, AdmissionRejectionIsStructuredAndNonDisruptive) {
  workload::ScenarioSpec scenario = TinyCapacityScenario();
  DaemonOptions options;
  options.system.enforce_limits = true;
  auto daemon = StartDaemon(scenario, options);
  ASSERT_NE(daemon, nullptr);
  ServeClient client = MakeClient(*daemon, "overloader");
  ASSERT_TRUE(client.Connect().ok());

  // First data-shipped copy of the raw stream fits.
  auto first = client.Subscribe(scenario.queries[0].text,
                                scenario.queries[0].target,
                                /*strategy=*/0);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(first->accepted) << first->reject_reason;
  ASSERT_TRUE(client.Feed(50).ok());
  ClientQueryResults before = client.results(first->query_id);

  // Shipping more raw copies must hit the E6 admission wall: the daemon
  // answers with a structured rejection, not an error, not an exit.
  bool rejected = false;
  std::string reason;
  for (int i = 0; i < 6 && !rejected; ++i) {
    auto result = client.Subscribe(scenario.queries[0].text,
                                   scenario.queries[0].target,
                                   /*strategy=*/0);
    ASSERT_TRUE(result.ok()) << result.status();
    if (!result->accepted) {
      rejected = true;
      reason = result->reject_reason;
      EXPECT_GE(result->query_id, 0);  // the attempt consumed an id
    }
  }
  ASSERT_TRUE(rejected);
  EXPECT_FALSE(reason.empty());

  // The installed population is untouched and still serving: the first
  // query keeps receiving deliveries after the rejection.
  ASSERT_TRUE(client.Feed(50).ok());
  ClientQueryResults after = client.results(first->query_id);
  EXPECT_GT(after.items, before.items);

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GE(stats->rejected, 1u);
  for (const QueryStat& query : stats->queries) {
    if (!query.accepted) EXPECT_FALSE(query.active);
  }

  daemon->RequestDrain(/*final_drain=*/true);
  daemon->Join();
  EXPECT_TRUE(daemon->loop_status().ok()) << daemon->loop_status();
}

TEST(ServeDaemon, DetachKeepsSubscriptionAndReattachCatchesUp) {
  workload::ScenarioSpec scenario = SmallScenario();
  auto daemon = StartDaemon(scenario);
  ASSERT_NE(daemon, nullptr);

  ServeClient first = MakeClient(*daemon, "first-life");
  ASSERT_TRUE(first.Connect().ok());
  auto q0 = first.Subscribe(scenario.queries[0].text,
                            scenario.queries[0].target);
  ASSERT_TRUE(q0.ok() && q0->accepted);
  ASSERT_TRUE(first.Feed(100).ok());
  ClientQueryResults first_results = first.results(q0->query_id);
  ASSERT_TRUE(first.Detach().ok());

  // While nobody is attached the subscription keeps accumulating.
  ASSERT_TRUE(first.Feed(100).ok());
  EXPECT_EQ(first.results(q0->query_id).items, first_results.items)
      << "detached client must not receive deliveries";

  // A second life re-attaches and catches up exactly the missed window.
  ServeClient second = MakeClient(*daemon, "second-life");
  ASSERT_TRUE(second.Connect().ok());
  auto attached = second.Attach(q0->query_id, first_results.next_seq);
  ASSERT_TRUE(attached.ok()) << attached.status();
  EXPECT_EQ(attached->forward_from, first_results.next_seq);
  ASSERT_TRUE(second.Feed(1).ok());

  auto stats = second.Stats();
  ASSERT_TRUE(stats.ok());
  uint64_t sink_items = stats->queries[q0->query_id].items;
  uint64_t sink_hash = stats->queries[q0->query_id].content_hash;
  ClientQueryResults caught_up = second.results(q0->query_id);
  EXPECT_EQ(first_results.items + caught_up.items, sink_items);
  EXPECT_EQ(first_results.content_hash + caught_up.content_hash,
            sink_hash);

  daemon->RequestDrain(/*final_drain=*/true);
  daemon->Join();
}

TEST(ServeDaemon, DisconnectImplicitlyUnsubscribes) {
  workload::ScenarioSpec scenario = SmallScenario();
  auto daemon = StartDaemon(scenario);
  ASSERT_NE(daemon, nullptr);

  {
    ServeClient doomed = MakeClient(*daemon, "doomed");
    ASSERT_TRUE(doomed.Connect().ok());
    auto q0 = doomed.Subscribe(scenario.queries[0].text,
                               scenario.queries[0].target);
    ASSERT_TRUE(q0.ok() && q0->accepted);
    doomed.Close();  // vanish without Unsubscribe or Detach
  }

  ServeClient observer = MakeClient(*daemon, "observer");
  ASSERT_TRUE(observer.Connect().ok());
  // The loop notices the EOF within a poll interval; the refcounted GC
  // then removes the orphaned subscription.
  bool inactive = false;
  for (int i = 0; i < 100 && !inactive; ++i) {
    auto stats = observer.Stats();
    ASSERT_TRUE(stats.ok()) << stats.status();
    if (!stats->queries.empty() && !stats->queries[0].active) {
      inactive = true;
    }
  }
  EXPECT_TRUE(inactive) << "disconnect did not trigger unsubscribe";
  auto final_stats = observer.Stats();
  ASSERT_TRUE(final_stats.ok());
  EXPECT_EQ(daemon->stats().unsubscribed, 1u);

  daemon->RequestDrain(/*final_drain=*/true);
  daemon->Join();
}

/// Reads frames until the next CONTROL ACK, skipping RESULT frames.
Result<ControlResponse> RawAck(FrameConn* conn) {
  while (true) {
    transport::Frame frame;
    SS_ASSIGN_OR_RETURN(ConnEvent event, conn->RecvFrame(&frame, 10000));
    if (event == ConnEvent::kFrame &&
        frame.type == transport::FrameType::kControlAck) {
      return DecodeResponse(frame.body);
    }
  }
}

/// Sends one request over a raw connection without waiting for its ACK.
Status RawSend(FrameConn* conn, const ControlRequest& request) {
  SS_RETURN_IF_ERROR(conn->QueueFrame(transport::FrameType::kControl,
                                      EncodeRequest(request)));
  return conn->FlushAll(5000);
}

Result<ControlResponse> RawCall(FrameConn* conn,
                                const ControlRequest& request) {
  SS_RETURN_IF_ERROR(RawSend(conn, request));
  SS_ASSIGN_OR_RETURN(ControlResponse response, RawAck(conn));
  SS_RETURN_IF_ERROR(ResponseStatus(response));
  return response;
}

TEST(ServeDaemon, ResetClientIsDetachedWithoutFailingOthers) {
  // A client that resets while the daemon still forwards to it costs
  // only its own attachments: the send error detaches it (implicit
  // unsubscribe), and neither another client's Feed ACK nor the final
  // drain sees the error. Connection order puts both feeders ahead of
  // the doomed client in the loop, so whenever a Feed and the reset are
  // read in one poll, the Feed forwards to the reset socket first.
  workload::ScenarioSpec scenario = SmallScenario();
  auto daemon = StartDaemon(scenario);
  ASSERT_NE(daemon, nullptr);
  ServeClient feeder = MakeClient(*daemon, "feeder");
  ASSERT_TRUE(feeder.Connect().ok());
  auto busy = ConnectTcp("127.0.0.1", daemon->port(), 5000);
  auto doomed = ConnectTcp("127.0.0.1", daemon->port(), 5000);
  ASSERT_TRUE(busy.ok() && doomed.ok());
  ControlRequest hello;
  hello.verb = Verb::kHello;
  ASSERT_TRUE(RawCall(&*busy, hello).ok());
  ASSERT_TRUE(RawCall(&*doomed, hello).ok());

  std::vector<int64_t> doomed_queries;
  for (int index : {0, 2}) {  // a plain query and a windowed aggregate
    ControlRequest subscribe;
    subscribe.verb = Verb::kSubscribe;
    subscribe.query_text = scenario.queries[index].text;
    subscribe.vq = scenario.queries[index].target;
    auto response = RawCall(&*doomed, subscribe);
    ASSERT_TRUE(response.ok()) << response.status();
    auto reply = DecodeSubscribeReply(response->payload);
    ASSERT_TRUE(reply.ok() && reply->accepted);
    doomed_queries.push_back(reply->query_id);
  }

  // The loop is busy with this Feed, whose RESULTs are queued for the
  // doomed client, while the reset and the next Feed arrive.
  ControlRequest feed;
  feed.verb = Verb::kFeed;
  feed.feed_items = 400;
  ASSERT_TRUE(RawSend(&*busy, feed).ok());
  struct linger reset = {1, 0};
  ASSERT_EQ(::setsockopt(doomed->fd(), SOL_SOCKET, SO_LINGER, &reset,
                         sizeof(reset)),
            0);
  doomed->Close();

  auto fed = feeder.Feed(50);
  ASSERT_TRUE(fed.ok()) << fed.status();
  auto busy_ack = RawAck(&*busy);
  ASSERT_TRUE(busy_ack.ok()) << busy_ack.status();
  EXPECT_TRUE(ResponseStatus(*busy_ack).ok()) << ResponseStatus(*busy_ack);

  auto stats = feeder.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->items_fed, 450u);
  for (int64_t query_id : doomed_queries) {
    EXPECT_FALSE(stats->queries[query_id].active) << "query " << query_id;
  }
  EXPECT_EQ(daemon->stats().unsubscribed, doomed_queries.size());

  daemon->RequestDrain(/*final_drain=*/true);
  daemon->Join();
  EXPECT_TRUE(daemon->loop_status().ok()) << daemon->loop_status();
}

TEST(ServeDaemon, UnsupportedFrameGetsDecodableAnswerNotTeardown) {
  workload::ScenarioSpec scenario = SmallScenario();
  auto daemon = StartDaemon(scenario);
  ASSERT_NE(daemon, nullptr);

  auto conn = ConnectTcp("127.0.0.1", daemon->port(), 5000);
  ASSERT_TRUE(conn.ok()) << conn.status();

  // A frame type from the future: well-framed, undispatchable.
  ASSERT_TRUE(conn->QueueFrame(static_cast<transport::FrameType>(0x41),
                               "mystery-payload")
                  .ok());
  ASSERT_TRUE(conn->FlushAll(2000).ok());
  transport::Frame frame;
  auto event = conn->RecvFrame(&frame, 5000);
  ASSERT_TRUE(event.ok()) << event.status();
  ASSERT_EQ(*event, ConnEvent::kFrame);
  ASSERT_EQ(frame.type, transport::FrameType::kControlAck);
  auto response = DecodeResponse(frame.body);
  ASSERT_TRUE(response.ok()) << response.status();
  Status answer = ResponseStatus(*response);
  EXPECT_TRUE(answer.IsUnsupported()) << answer;
  EXPECT_NE(answer.message().find("type 65"), std::string::npos)
      << answer.message();

  // The connection is still usable: a proper handshake succeeds on it.
  ControlRequest hello;
  hello.request_id = 1;
  hello.verb = Verb::kHello;
  hello.client_name = "post-mystery";
  ASSERT_TRUE(conn->QueueFrame(transport::FrameType::kControl,
                               EncodeRequest(hello))
                  .ok());
  ASSERT_TRUE(conn->FlushAll(2000).ok());
  event = conn->RecvFrame(&frame, 5000);
  ASSERT_TRUE(event.ok()) << event.status();
  ASSERT_EQ(frame.type, transport::FrameType::kControlAck);
  response = DecodeResponse(frame.body);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(ResponseStatus(*response).ok());
  EXPECT_EQ(daemon->stats().unsupported_frames, 1u);

  daemon->RequestDrain(/*final_drain=*/true);
  daemon->Join();
}

TEST(ServeDaemon, RestartableDrainCheckpointsAndExitsCleanly) {
  workload::ScenarioSpec scenario = SmallScenario();
  DaemonOptions options;
  options.checkpoint_path =
      ::testing::TempDir() + "/serve_drain_reject.ckpt";
  std::remove(options.checkpoint_path.c_str());
  auto daemon = StartDaemon(scenario, options);
  ASSERT_NE(daemon, nullptr);

  ServeClient client = MakeClient(*daemon, "late");
  ASSERT_TRUE(client.Connect().ok());
  auto q0 = client.Subscribe(scenario.queries[0].text,
                             scenario.queries[0].target);
  ASSERT_TRUE(q0.ok() && q0->accepted);
  ASSERT_TRUE(client.Feed(50).ok());

  auto drained = client.Drain(/*final_drain=*/false);
  ASSERT_TRUE(drained.ok()) << drained.status();
  auto eos = client.WaitEos(10000);
  ASSERT_TRUE(eos.ok()) << eos.status();
  EXPECT_FALSE(eos->final_drain);
  daemon->Join();
  EXPECT_TRUE(daemon->loop_status().ok()) << daemon->loop_status();

  auto checkpoint = LoadCheckpoint(options.checkpoint_path);
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status();
  EXPECT_EQ(checkpoint->items_fed, 50u);
  ASSERT_EQ(checkpoint->events.size(), 1u);
  EXPECT_EQ(checkpoint->events[0].kind, LogEvent::Kind::kSubscribe);
  std::remove(options.checkpoint_path.c_str());
}

TEST(ServeDaemon, SubscribeBatchMatchesSequentialSubscribes) {
  workload::ScenarioSpec scenario = SmallScenario();

  // Daemon A takes the whole workload in one SubscribeBatch verb, daemon
  // B takes it as individual Subscribe verbs; identical deliveries.
  auto batch_daemon = StartDaemon(scenario);
  auto seq_daemon = StartDaemon(scenario);
  ASSERT_NE(batch_daemon, nullptr);
  ASSERT_NE(seq_daemon, nullptr);
  ServeClient batch_client = MakeClient(*batch_daemon, "batcher");
  ServeClient seq_client = MakeClient(*seq_daemon, "sequential");
  ASSERT_TRUE(batch_client.Connect().ok());
  ASSERT_TRUE(seq_client.Connect().ok());

  // The scenario's queries plus a repeat of the first template at a
  // different target — the repeat must hit the batch's analysis cache.
  std::vector<ControlRequest::BatchEntry> entries;
  for (const workload::QuerySpec& query : scenario.queries) {
    entries.push_back({query.text, query.target, /*strategy=*/2});
  }
  entries.push_back({scenario.queries[0].text,
                     scenario.queries[1].target, /*strategy=*/2});
  for (const ControlRequest::BatchEntry& entry : entries) {
    auto result = seq_client.Subscribe(
        entry.query_text, static_cast<network::NodeId>(entry.vq));
    ASSERT_TRUE(result.ok()) << result.status();
  }
  auto batched = batch_client.SubscribeBatch(entries);
  ASSERT_TRUE(batched.ok()) << batched.status();
  ASSERT_EQ(batched->entries.size(), entries.size());
  EXPECT_GT(batched->analyze_cache_hits, 0u)
      << "the repeated template missed the batch analysis cache";

  constexpr uint64_t kItems = 200;
  ASSERT_TRUE(batch_client.Feed(kItems).ok());
  ASSERT_TRUE(seq_client.Feed(kItems).ok());
  auto batch_stats = batch_client.Stats();
  auto seq_stats = seq_client.Stats();
  ASSERT_TRUE(batch_stats.ok()) << batch_stats.status();
  ASSERT_TRUE(seq_stats.ok()) << seq_stats.status();
  ASSERT_EQ(batch_stats->queries.size(), seq_stats->queries.size());
  uint64_t total = 0;
  for (size_t q = 0; q < batch_stats->queries.size(); ++q) {
    const QueryStat& a = batch_stats->queries[q];
    const QueryStat& b = seq_stats->queries[q];
    EXPECT_EQ(a.accepted, b.accepted) << "query " << q;
    EXPECT_EQ(batched->entries[q].accepted, b.accepted) << "query " << q;
    EXPECT_EQ(a.items, b.items) << "query " << q;
    EXPECT_EQ(a.bytes, b.bytes) << "query " << q;
    EXPECT_EQ(a.content_hash, b.content_hash) << "query " << q;
    total += a.items;
  }
  EXPECT_GT(total, 0u) << "workload delivered nothing; identity vacuous";

  // The batch subscriber receives deliveries for its accepted entries
  // just like individual subscribers do.
  uint64_t client_total = 0;
  for (const SubscribeReply& entry : batched->entries) {
    if (entry.accepted) {
      client_total += batch_client.results(entry.query_id).items;
    }
  }
  EXPECT_EQ(client_total, total);

  batch_daemon->RequestDrain(/*final_drain=*/true);
  seq_daemon->RequestDrain(/*final_drain=*/true);
  batch_daemon->Join();
  seq_daemon->Join();
  EXPECT_TRUE(batch_daemon->loop_status().ok())
      << batch_daemon->loop_status();
}

TEST(ServeDaemon, ReoptimizeVerbReportsAndKeepsServing) {
  workload::ScenarioSpec scenario = SmallScenario();
  auto daemon = StartDaemon(scenario);
  ASSERT_NE(daemon, nullptr);
  ServeClient client = MakeClient(*daemon, "reoptimizer");
  ASSERT_TRUE(client.Connect().ok());

  std::vector<ControlRequest::BatchEntry> entries;
  for (const workload::QuerySpec& query : scenario.queries) {
    entries.push_back({query.text, query.target, /*strategy=*/2});
  }
  auto batched = client.SubscribeBatch(entries);
  ASSERT_TRUE(batched.ok()) << batched.status();
  ASSERT_TRUE(client.Feed(100).ok());

  auto report = client.Reoptimize();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->examined, 0u);
  EXPECT_EQ(report->torn_down, 0u);

  // The daemon keeps serving after the pass, whatever it migrated.
  ClientQueryResults before = client.results(0);
  ASSERT_TRUE(client.Feed(100).ok());
  EXPECT_GT(client.results(0).items, before.items);

  daemon->RequestDrain(/*final_drain=*/true);
  daemon->Join();
  EXPECT_TRUE(daemon->loop_status().ok()) << daemon->loop_status();
}

TEST(ServeDaemon, ReoptimizeInterleavesWithLiveSubscribeAndFeed) {
  // Two clients hammer the daemon concurrently: one keeps subscribing
  // and feeding, the other keeps requesting re-optimization passes. The
  // daemon loop serializes the verbs; under TSAN this pins down that the
  // migration machinery shares no unsynchronized state with the live
  // subscribe/feed path (client threads vs the daemon loop thread).
  workload::ScenarioSpec scenario = SmallScenario();
  auto daemon = StartDaemon(scenario);
  ASSERT_NE(daemon, nullptr);

  std::thread subscriber([&] {
    ServeClient client = MakeClient(*daemon, "subscriber");
    ASSERT_TRUE(client.Connect().ok());
    for (int round = 0; round < 8; ++round) {
      const workload::QuerySpec& query =
          scenario.queries[round % scenario.queries.size()];
      auto result = client.Subscribe(query.text, query.target);
      ASSERT_TRUE(result.ok()) << result.status();
      ASSERT_TRUE(client.Feed(25).ok());
    }
    client.Close();
  });
  std::thread reoptimizer([&] {
    ServeClient client = MakeClient(*daemon, "reoptimizer");
    ASSERT_TRUE(client.Connect().ok());
    for (int round = 0; round < 8; ++round) {
      auto report = client.Reoptimize(/*max_migrations=*/2);
      ASSERT_TRUE(report.ok()) << report.status();
    }
    client.Close();
  });
  subscriber.join();
  reoptimizer.join();

  daemon->RequestDrain(/*final_drain=*/true);
  daemon->Join();
  EXPECT_TRUE(daemon->loop_status().ok()) << daemon->loop_status();
}

TEST(ServeDaemon, RestartableDrainNeedsCheckpointPath) {
  workload::ScenarioSpec scenario = SmallScenario();
  auto daemon = StartDaemon(scenario);  // no checkpoint_path
  ASSERT_NE(daemon, nullptr);
  ServeClient client = MakeClient(*daemon, "no-ckpt");
  ASSERT_TRUE(client.Connect().ok());
  auto drained = client.Drain(/*final_drain=*/false);
  EXPECT_TRUE(drained.status().IsInvalidArgument()) << drained.status();
  daemon->RequestDrain(/*final_drain=*/true);
  daemon->Join();
}

}  // namespace
}  // namespace streamshare::serve
