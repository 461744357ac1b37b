// serve_subscribe: the registration path through a real daemon.
//
// Client connections (nproc − 1, at most two), each closed-loop,
// subscribe pooled template queries (discrete constants,
// QueryGenConfig::shrink_steps > 0, uniform target peer) on both streams
// and unsubscribe their own oldest query, so the live population stays at
// its initial size. Rounds are separated by a barrier; between rounds one
// client feeds a few items so the changing deployment keeps processing
// data. Every operation of a round therefore runs at a known stream
// offset, which is what lets the data-shipping reference replay the same
// rounds. The run is a sequence of identical short slices until the
// run's time is up (the host's speed changes over seconds to minutes, and
// many slices let every figure sample the whole run); each slice runs
//
//   1. the set-up of a fresh main daemon life: exec → listening → Hello →
//      initial population;
//   2. two kill -9 → restart → Hello → re-attach cycles of the recovery
//      daemon, which holds a fixed history (population and prefix rounds):
//      every live query re-attaches, every unsubscribed one is NotFound;
//   3. a fixed number of rounds on the main daemon, which then drains.
//
// Every slice replays the same query sequence on its own daemon life:
// the daemon slows with every registration it has ever seen, so one life
// across the whole run would make every slice a different workload.

#include <algorithm>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <deque>
#include <random>
#include <thread>

#include "serve/wal.h"
#include "serve_common.h"
#include "wxquery/analyzer.h"
#include "workloads.h"

namespace streamshare::perfbench {

namespace {

constexpr size_t kPopulation = 99;  // live queries, split over the clients
constexpr uint64_t kFeedPerRound = 2;  // items per stream between rounds
constexpr uint64_t kPrefixRounds = 50;
constexpr uint64_t kRoundsPerSlice = 200;
constexpr int kRestartsPerSlice = 2;
// Two clients keep Subscribes concurrent at the daemon while leaving a
// core free on a 4-core host, which makes the figures steadier.
constexpr size_t kMaxClients = 2;
constexpr int kShrinkSteps = 4;
// The query sequence is the same for every benchmark seed, as the grid's
// queries are: its mix of templates and constants sets the cost of every
// operation and the traffic per item, and differing pools would spread
// those figures across seeds. The seed changes the photon values.
constexpr uint64_t kQuerySeed = 13;

struct QueryOp {
  std::string text;
  network::NodeId vq = 0;
  bool windowed = false;
  bool recombined = false;  // population only: plan recombines windows
  uint64_t subscribed_at = 0;   // round the query was subscribed in
  uint64_t unsubscribed_at = 0; // round it left (0 = still live)
  int64_t daemon_id = -1;
  int client = 0;
};

/// The pooled query sequence: both streams, uniform target peers.
std::vector<QueryOp> MakeQueries(uint64_t seed, size_t count) {
  workload::QueryGenConfig first =
      workload::QueryGenConfig::Default(2 * seed + 1, "photons");
  workload::QueryGenConfig second =
      workload::QueryGenConfig::Default(2 * seed + 2, "photons2");
  first.shrink_steps = kShrinkSteps;
  second.shrink_steps = kShrinkSteps;
  workload::QueryGenerator gen_first(first);
  workload::QueryGenerator gen_second(second);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> target(0, 15);
  std::uniform_int_distribution<int> stream(0, 1);
  std::vector<QueryOp> queries(count);
  for (QueryOp& query : queries) {
    query.text = stream(rng) == 0 ? gen_first.Next() : gen_second.Next();
    query.vq = target(rng);
    query.windowed = IsWindowed(query.text);
  }
  return queries;
}

struct Client {
  std::unique_ptr<serve::ServeClient> conn;
  std::deque<size_t> live;      // indexes into the query sequence
  std::vector<size_t> departed;
  Samples subscribe_ms, unsubscribe_ms;
  uint64_t accepted = 0;
  Status status;
};

/// One daemon with its client connections and the query sequence they
/// subscribe.
struct Fleet {
  DaemonFiles files;
  DaemonProcess daemon;
  std::vector<Client> clients;
  std::vector<QueryOp> queries;
  size_t next_query = 0;
  uint64_t rounds_done = 0;  // last round run (round 0 = population)
};

class Driver {
 public:
  Driver(const RunOptions& options, RunContext* run)
      : options_(options), run_(run) {}

  Status Run();

 private:
  Status Launch(Fleet* f, const std::string& dir);
  Status Populate(Fleet* f);
  /// Rounds [first, last) with every client on its own thread; records
  /// the call times when the sample sets are given.
  Status RunRounds(Fleet* f, uint64_t first, uint64_t last,
                   Samples* subscribe_ms, Samples* unsubscribe_ms);
  Status Restart(Fleet* f, double* seconds);
  Status CheckDaemon(Fleet* f, const std::string& when,
                     uint64_t accepted_this_life);
  Status CheckReference(Fleet* f);
  /// `subscribe_us` is the mean measured Subscribe call.
  Status TraceRegistrationPath(const Fleet& f, double subscribe_us);

  const RunOptions& options_;
  RunContext* run_;
  workload::ScenarioSpec scenario_ = BenchScenario(options_.seed);
  size_t client_count_ = 1;
  uint64_t midstream_mismatch_ = 0;
  uint64_t windowed_midstream_ = 0;
  uint64_t recombined_mismatch_ = 0;
};

Status Driver::Launch(Fleet* f, const std::string& dir) {
  SS_ASSIGN_OR_RETURN(f->files, FreshDaemonFiles(dir));
  SS_RETURN_IF_ERROR(StartDaemon(options_, f->files, &f->daemon));
  f->clients.resize(client_count_);
  for (size_t c = 0; c < f->clients.size(); ++c) {
    f->clients[c].conn = std::make_unique<serve::ServeClient>(
        ClientFor(f->daemon, "perfbench-subscribe-" + std::to_string(c)));
    SS_RETURN_IF_ERROR(f->clients[c].conn->Connect());
  }
  return Status::Ok();
}

Status Driver::Populate(Fleet* f) {
  f->next_query = 0;
  for (Client& client : f->clients) {
    client.live.clear();
    client.departed.clear();
    client.accepted = 0;
  }
  for (size_t i = 0; i < kPopulation; ++i) {
    Client& client = f->clients[i % f->clients.size()];
    QueryOp& query = f->queries[f->next_query];
    SS_ASSIGN_OR_RETURN(serve::SubscribeReply reply,
                        client.conn->Subscribe(query.text, query.vq));
    ++run_->e2e.attempted;
    if (!reply.accepted) {
      return Status::Internal("daemon rejected " + query.text + ": " +
                              reply.reject_reason);
    }
    query.daemon_id = reply.query_id;
    query.client = static_cast<int>(i % f->clients.size());
    query.subscribed_at = 0;
    client.live.push_back(f->next_query++);
  }
  return Status::Ok();
}

Status Driver::RunRounds(Fleet* f, uint64_t first, uint64_t last,
                         Samples* subscribe_ms, Samples* unsubscribe_ms) {
  const bool record = subscribe_ms != nullptr;
  const size_t n = f->clients.size();
  std::barrier sync(static_cast<std::ptrdiff_t>(n));
  std::vector<std::thread> threads;
  const size_t base = f->next_query;
  for (size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      Client& client = f->clients[c];
      bool failed = false;
      for (uint64_t round = first; round < last; ++round) {
        if (!failed) {
          size_t index = base + (round - first) * n + c;
          QueryOp& query = f->queries[index];
          double t0 = Now();
          Result<serve::SubscribeReply> reply =
              client.conn->Subscribe(query.text, query.vq);
          double t1 = Now();
          if (!reply.ok() || !reply->accepted) {
            client.status = reply.ok()
                                ? Status::Internal("subscribe rejected: " +
                                                   reply->reject_reason)
                                : reply.status();
            failed = true;
          } else {
            query.daemon_id = reply->query_id;
            query.client = static_cast<int>(c);
            query.subscribed_at = round;
            client.live.push_back(index);
            ++client.accepted;
            size_t oldest = client.live.front();
            client.live.pop_front();
            double t2 = Now();
            Status left =
                client.conn->Unsubscribe(f->queries[oldest].daemon_id);
            double t3 = Now();
            if (!left.ok()) {
              client.status = left;
              failed = true;
            }
            f->queries[oldest].unsubscribed_at = round;
            client.departed.push_back(oldest);
            if (record) {
              client.subscribe_ms.Add((t1 - t0) * 1e3);
              client.unsubscribe_ms.Add((t3 - t2) * 1e3);
            }
          }
        }
        sync.arrive_and_wait();
        if (c == 0 && !failed) {
          Result<serve::FeedReply> fed = client.conn->Feed(kFeedPerRound);
          if (!fed.ok()) {
            client.status = fed.status();
            failed = true;
          }
        }
        sync.arrive_and_wait();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  f->next_query = base + (last - first) * n;
  f->rounds_done = last - 1;
  run_->e2e.attempted += (last - first) * (2 * n + 1);
  for (Client& client : f->clients) {
    SS_RETURN_IF_ERROR(client.status);
    if (record) {
      subscribe_ms->Append(client.subscribe_ms);
      unsubscribe_ms->Append(client.unsubscribe_ms);
    }
    client.subscribe_ms = Samples();
    client.unsubscribe_ms = Samples();
  }
  return Status::Ok();
}

Status Driver::Restart(Fleet* f, double* seconds) {
  double t0 = Now();
  f->daemon.Kill9();
  for (Client& client : f->clients) client.conn->Close();
  SS_RETURN_IF_ERROR(StartDaemon(options_, f->files, &f->daemon));
  for (size_t c = 0; c < f->clients.size(); ++c) {
    f->clients[c].conn->set_port(f->daemon.port());
    SS_RETURN_IF_ERROR(f->clients[c].conn->Connect());
    if (c == 0) *seconds = Now() - t0;
  }
  ++run_->e2e.attempted;
  for (Client& client : f->clients) {
    for (size_t index : client.live) {
      int64_t id = f->queries[index].daemon_id;
      Result<serve::SubscribeReply> reply =
          client.conn->Attach(id, client.conn->results(id).next_seq);
      ++run_->e2e.attempted;
      if (!reply.ok()) {
        run_->e2e.Fail("live query " + std::to_string(id) +
                       " did not re-attach: " + reply.status().ToString());
      }
    }
    for (size_t index : client.departed) {
      int64_t id = f->queries[index].daemon_id;
      Result<serve::SubscribeReply> reply = client.conn->Attach(id, 0);
      ++run_->e2e.attempted;
      if (reply.ok() || !reply.status().IsNotFound()) {
        run_->e2e.Fail("unsubscribed query " + std::to_string(id) +
                       " is not NotFound after a restart");
      }
    }
  }
  return Status::Ok();
}

Status Driver::CheckDaemon(Fleet* f, const std::string& when,
                           uint64_t accepted_this_life) {
  // A client reads the RESULT frames of another client's Feed only while
  // it waits for a reply of its own: one call each brings them all in.
  for (size_t c = 1; c < f->clients.size(); ++c) {
    SS_RETURN_IF_ERROR(f->clients[c].conn->Stats().status());
  }
  SS_ASSIGN_OR_RETURN(serve::StatsReply stats, f->clients[0].conn->Stats());
  if (stats.admitted != accepted_this_life || stats.rejected != 0) {
    run_->e2e.Fail(when + ": Stats admitted=" +
                   std::to_string(stats.admitted) + " rejected=" +
                   std::to_string(stats.rejected) + ", clients counted " +
                   std::to_string(accepted_this_life));
  }
  for (const Client& client : f->clients) {
    for (size_t index : client.live) {
      int64_t id = f->queries[index].daemon_id;
      if (id < 0 || static_cast<size_t>(id) >= stats.queries.size() ||
          !stats.queries[id].active) {
        run_->e2e.Fail(when + ": live query " + std::to_string(id) +
                       " is not active");
        continue;
      }
      Observation daemon = FromStat(stats.queries[id]);
      Observation seen = FromClient(client.conn->results(id));
      if (!(daemon == seen)) {
        run_->e2e.Fail(when + ": query " + std::to_string(id) + " daemon " +
                       ToString(daemon) + ", client " + ToString(seen));
      }
    }
  }
  return Status::Ok();
}

Status Driver::CheckReference(Fleet* f) {
  // Data shipping over the same rounds: registrations and departures at
  // the round they happened in, the same feeds in between.
  SS_ASSIGN_OR_RETURN(std::unique_ptr<Reference> reference,
                      Reference::Create(scenario_));
  std::vector<std::vector<size_t>> joins(f->rounds_done + 1),
      leaves(f->rounds_done + 1);
  for (size_t i = 0; i < f->next_query; ++i) {
    joins[f->queries[i].subscribed_at].push_back(i);
    if (f->queries[i].unsubscribed_at != 0) {
      leaves[f->queries[i].unsubscribed_at].push_back(i);
    }
  }
  std::vector<int> reference_ids(f->next_query, -1);
  for (uint64_t round = 0; round <= f->rounds_done; ++round) {
    for (size_t i : joins[round]) {
      SS_ASSIGN_OR_RETURN(reference_ids[i],
                          reference->Subscribe(f->queries[i].text,
                                               f->queries[i].vq));
    }
    for (size_t i : leaves[round]) {
      SS_RETURN_IF_ERROR(reference->Unsubscribe(reference_ids[i]));
    }
    // Round r >= 1 feeds after its operations; round 0 is the population.
    if (round >= 1) SS_RETURN_IF_ERROR(reference->Feed(kFeedPerRound));
  }
  for (size_t i = 0; i < f->next_query; ++i) {
    const QueryOp& query = f->queries[i];
    Observation expected = reference->Observe(reference_ids[i]);
    Observation seen =
        FromClient(f->clients[query.client].conn->results(query.daemon_id));
    bool midstream = query.windowed && query.subscribed_at > 0;
    if (midstream) ++windowed_midstream_;
    if (seen == expected) continue;
    // The two known window faults are counted, not failed (see README).
    if (midstream) {
      ++midstream_mismatch_;
      continue;
    }
    if (query.recombined) {
      ++recombined_mismatch_;
      continue;
    }
    run_->e2e.Fail("query " + std::to_string(query.daemon_id) + " (" +
                   query.text + " @" + std::to_string(query.vq) +
                   ") delivered " + ToString(seen) + ", data shipping " +
                   ToString(expected));
  }
  return Status::Ok();
}

Status Driver::TraceRegistrationPath(const Fleet& fleet,
                                     double subscribe_us) {
  const Fleet* f = &fleet;
  const uint64_t measured_from_round = 1;
  // The daemon's per-registration sequence rebuilt in-process: parse and
  // analyze, RegisterQuery (plan and deploy), the WAL append, and the
  // refcounted Unsubscribe, over the same operations in client order.
  Tracer* tracer = &run_->tracer;
  Report& layers = run_->layers;
  sharing::SystemConfig config;
  config.keep_results = true;
  SS_ASSIGN_OR_RETURN(std::unique_ptr<sharing::StreamShareSystem> system,
                      workload::BuildSystem(scenario_, config));
  serve::WalHeader header;
  SS_ASSIGN_OR_RETURN(
      serve::WriteAheadLog wal,
      serve::WriteAheadLog::Create(options_.work_dir + "/trace.wal", header));
  std::vector<workload::PhotonGenerator> generators =
      MakeGenerators(scenario_);
  std::vector<std::vector<size_t>> joins(f->rounds_done + 1),
      leaves(f->rounds_done + 1);
  for (size_t i = 0; i < f->next_query; ++i) {
    joins[f->queries[i].subscribed_at].push_back(i);
    if (f->queries[i].unsubscribed_at != 0) {
      leaves[f->queries[i].unsubscribed_at].push_back(i);
    }
  }
  std::vector<int> ids(f->next_query, -1);
  double analyze_us = 0, register_us = 0, wal_us = 0, unsubscribe_us = 0;
  double subscribe_wal_us = 0;
  double generate_us = 0, engine_us = 0;
  double registrations = 0, unsubscribes = 0, appends = 0, reused = 0;
  double examined = 0, matched = 0, fed = 0;
  for (uint64_t round = 0; round <= f->rounds_done; ++round) {
    bool measured = round >= measured_from_round;
    for (size_t i : joins[round]) {
      ScopedSpan subscribe(tracer, "serve.subscribe", i);
      double t0 = Now();
      {
        ScopedSpan span(tracer, "wxquery.parse_analyze", i, subscribe.id());
        SS_RETURN_IF_ERROR(
            wxquery::ParseAndAnalyze(f->queries[i].text).status());
      }
      double t1 = Now();
      int64_t span = tracer->Begin("sharing.register", i, subscribe.id());
      SS_ASSIGN_OR_RETURN(
          sharing::RegistrationResult result,
          system->RegisterQuery(f->queries[i].text, f->queries[i].vq,
                                sharing::Strategy::kStreamSharing));
      tracer->End(span);
      double t2 = Now();
      serve::LogEvent event;
      event.at_items = static_cast<uint64_t>(fed);
      event.query_text = f->queries[i].text;
      event.vq = f->queries[i].vq;
      {
        ScopedSpan append(tracer, "serve.wal_append", i, subscribe.id());
        SS_RETURN_IF_ERROR(wal.Append(serve::WalRecord::Event(event)));
      }
      double t3 = Now();
      ids[i] = result.query_id;
      if (result.sink != nullptr) result.sink->EnableContentHash();
      if (!measured) continue;
      analyze_us += (t1 - t0) * 1e6;
      register_us += (t2 - t1) * 1e6;
      wal_us += (t3 - t2) * 1e6;
      subscribe_wal_us += (t3 - t2) * 1e6;
      registrations += 1;
      appends += 1;
      if (ReusesStream(*system, result)) reused += 1;
      examined += result.search.candidates_examined;
      matched += result.search.candidates_matched;
    }
    for (size_t i : leaves[round]) {
      ScopedSpan unsubscribe(tracer, "serve.unsubscribe", i);
      double t0 = Now();
      {
        ScopedSpan span(tracer, "sharing.unsubscribe", i, unsubscribe.id());
        SS_RETURN_IF_ERROR(system->Unsubscribe(ids[i]));
      }
      double t1 = Now();
      serve::LogEvent event;
      event.kind = serve::LogEvent::Kind::kUnsubscribe;
      event.query_id = ids[i];
      {
        ScopedSpan append(tracer, "serve.wal_append", i, unsubscribe.id());
        SS_RETURN_IF_ERROR(wal.Append(serve::WalRecord::Event(event)));
      }
      double t2 = Now();
      if (!measured) continue;
      unsubscribe_us += (t1 - t0) * 1e6;
      wal_us += (t2 - t1) * 1e6;
      unsubscribes += 1;
      appends += 1;
    }
    if (round == 0) continue;
    ScopedSpan feed(tracer, "serve.feed", round);
    double t0 = Now();
    int64_t generate = tracer->Begin("workload.generate", round, feed.id());
    auto items = GenerateItems(scenario_, &generators, kFeedPerRound);
    tracer->End(generate);
    double t1 = Now();
    int64_t engine = tracer->Begin("engine.feed", round, feed.id());
    SS_RETURN_IF_ERROR(system->Feed(items));
    tracer->End(engine);
    double t2 = Now();
    fed += kFeedPerRound;
    if (!measured) continue;
    generate_us += (t1 - t0) * 1e6;
    engine_us += (t2 - t1) * 1e6;
  }
  double streams = static_cast<double>(scenario_.streams.size());
  double measured_rounds =
      static_cast<double>(f->rounds_done + 1 - measured_from_round);
  double measured_items = measured_rounds * kFeedPerRound * streams;
  layers.Set("workload.generate_us_per_item", generate_us / measured_items,
             "us");
  layers.Set("engine.feed_us_per_item", engine_us / measured_items, "us");
  ReportEngineCounters(*system, fed * streams, &layers);
  layers.Set("wxquery.parse_analyze_us", analyze_us / registrations, "us");
  layers.Set("sharing.register_us", (analyze_us + register_us) / registrations,
             "us");
  layers.Set("sharing.plan_deploy_us", register_us / registrations, "us");
  layers.Set("sharing.reuse_share", reused / registrations, "share");
  layers.Set("sharing.candidates_examined", examined / registrations,
             "count");
  layers.Set("sharing.candidates_matched_share",
             examined > 0 ? matched / examined : 0.0, "share");
  layers.Set("sharing.unsubscribe_us", unsubscribe_us / unsubscribes, "us");
  layers.Set("serve.wal_append_us", wal_us / appends, "us");
  layers.Set("serve.unattributed_us_per_subscribe",
             subscribe_us -
                 (analyze_us + register_us + subscribe_wal_us) / registrations,
             "us");
  return Status::Ok();
}

Status Driver::Run() {
  Report& e2e = run_->e2e;
  unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  client_count_ = std::max<size_t>(1, std::min<size_t>(kMaxClients, hw - 1));
  const double deadline = Now() + options_.seconds;
  std::vector<QueryOp> sequence = MakeQueries(
      kQuerySeed, kPopulation + kRoundsPerSlice * client_count_);
  std::vector<workload::QuerySpec> population;
  for (size_t i = 0; i < kPopulation; ++i) {
    population.push_back({sequence[i].text, sequence[i].vq});
  }
  SS_ASSIGN_OR_RETURN(std::vector<bool> recombined,
                      RecombinedPlans(scenario_, population));
  for (size_t i = 0; i < kPopulation; ++i) {
    sequence[i].recombined = recombined[i];
  }

  // The recovery daemon with its fixed history.
  Fleet recovery;
  recovery.queries.assign(
      sequence.begin(),
      sequence.begin() + kPopulation + kPrefixRounds * client_count_);
  SS_RETURN_IF_ERROR(
      Launch(&recovery, options_.work_dir + "/subscribe-recovery"));
  SS_RETURN_IF_ERROR(Populate(&recovery));
  SS_RETURN_IF_ERROR(
      RunRounds(&recovery, 1, 1 + kPrefixRounds, nullptr, nullptr));
  uint64_t accepted = kPopulation;
  for (Client& client : recovery.clients) accepted += client.accepted;
  SS_RETURN_IF_ERROR(CheckDaemon(&recovery, "after the prefix", accepted));

  Samples setup_s, recovery_s, throughput, cpu_us, slice_p50_ms, rss_mb,
      kb_per_item, rss_kb_per_subscribe, subscribe_ms, unsubscribe_ms;
  uint64_t wal_appends = 0, wal_fsync_us = 0;
  const double ops =
      static_cast<double>(kRoundsPerSlice * client_count_ * 2);
  const std::string snapshot_dir =
      options_.work_dir + "/subscribe-restart";
  int slices = 0;
  const double slices_start = Now();
  for (bool last = false; !last; ++slices) {
    // The run ends once it could not fit another slice of the same length.
    const double mean_slice =
        slices > 0 ? (Now() - slices_start) / static_cast<double>(slices)
                   : 0.0;
    last = slices >= 2 && Now() + 2.0 * mean_slice > deadline;
    // 1. Set-up: a fresh daemon life with the initial population. Every
    // slice runs the same operations on a fresh life, so the history the
    // daemon carries (which slows every operation, see README) is the
    // same in every slice.
    Fleet main;
    main.queries = sequence;
    double t0 = Now();
    SS_RETURN_IF_ERROR(Launch(&main, options_.work_dir + "/subscribe-main"));
    SS_RETURN_IF_ERROR(Populate(&main));
    setup_s.Add(Now() - t0);
    double rss_after_setup_kb = static_cast<double>(main.daemon.PeakRssKb());

    // 2. kill -9 → restart → Hello → re-attach, on the fixed history.
    if (run_->tracer.enabled() && last) {
      SS_RETURN_IF_ERROR(SnapshotDurableFiles(recovery.files, snapshot_dir));
    }
    for (int restart = 0; restart < kRestartsPerSlice; ++restart) {
      double seconds = 0;
      SS_RETURN_IF_ERROR(Restart(&recovery, &seconds));
      recovery_s.Add(seconds);
      SS_RETURN_IF_ERROR(CheckDaemon(
          &recovery, "after restart " + std::to_string(recovery_s.size()),
          0));
    }

    // 3. The rounds.
    Samples slice_ms;
    SS_ASSIGN_OR_RETURN(serve::StatsReply before,
                        main.clients[0].conn->Stats());
    double cpu0 = main.daemon.CpuSeconds();
    double r0 = Now();
    SS_RETURN_IF_ERROR(RunRounds(&main, 1, 1 + kRoundsPerSlice, &slice_ms,
                                 &unsubscribe_ms));
    double elapsed = Now() - r0;
    throughput.Add(ops / elapsed);
    cpu_us.Add((main.daemon.CpuSeconds() - cpu0) * 1e6 / ops);
    subscribe_ms.Append(slice_ms);
    slice_p50_ms.Add(slice_ms.Median());
    SS_ASSIGN_OR_RETURN(serve::StatsReply after,
                        main.clients[0].conn->Stats());
    wal_appends += after.wal_appends - before.wal_appends;
    wal_fsync_us += after.wal_fsync_us - before.wal_fsync_us;

    // End of the life: checks, memory and traffic, untimed.
    accepted = kPopulation;
    for (Client& client : main.clients) accepted += client.accepted;
    SS_RETURN_IF_ERROR(CheckDaemon(&main, "end of slice " +
                                              std::to_string(slices + 1),
                                   accepted));
    double rss_kb = static_cast<double>(main.daemon.PeakRssKb());
    rss_mb.Add(rss_kb / 1024.0);
    rss_kb_per_subscribe.Add(
        (rss_kb - rss_after_setup_kb) /
        static_cast<double>(main.next_query - kPopulation));
    for (Client& client : main.clients) client.conn->Close();
    SS_RETURN_IF_ERROR(main.daemon.Terminate());
    SS_ASSIGN_OR_RETURN(double link_bytes,
                        LinkBytesFromMetricsCsv(main.files.metrics()));
    double items = static_cast<double>(main.rounds_done * kFeedPerRound *
                                       scenario_.streams.size());
    kb_per_item.Add(link_bytes / items / 1024.0);
    if (run_->tracer.enabled() && last) {
      // The in-process rebuilds run before the reference checks, whose
      // systems would leave this process's heap slower to allocate in.
      Report& layers = run_->layers;
      SS_RETURN_IF_ERROR(TraceRecovery(scenario_, snapshot_dir,
                                       recovery_s.Median() * 1e3,
                                       &run_->tracer, &layers));
      SS_RETURN_IF_ERROR(TraceRegistrationPath(
          main, slice_ms.Sum() * 1e3 / static_cast<double>(slice_ms.size())));
    }
    SS_RETURN_IF_ERROR(CheckReference(&main));
  }
  for (Client& client : recovery.clients) client.conn->Close();
  recovery.daemon.Kill9();
  SS_RETURN_IF_ERROR(CheckReference(&recovery));

  e2e.Set("setup_s", setup_s.Median(), "s");
  e2e.Set("throughput_per_s", throughput.Quantile(kFastRateQuantile), "1/s");
  e2e.Set("latency_p50_ms", slice_p50_ms.Quantile(kFastTimeQuantile), "ms");
  e2e.Set("cpu_us_per_op", cpu_us.Quantile(kFastTimeQuantile), "us");
  e2e.Set("rss_mb", rss_mb.Median(), "MB");
  e2e.Set("recovery_s", recovery_s.Quantile(kFastTimeQuantile), "s");
  e2e.Set("network_kb_per_item", kb_per_item.Median(), "KB");
  std::printf(
      "serve_subscribe clients=%zu slices=%d rounds_per_slice=%llu "
      "windowed_midstream=%llu midstream_window_mismatch=%llu "
      "recombined_window_mismatch=%llu\n",
      client_count_, slices,
      static_cast<unsigned long long>(kRoundsPerSlice),
      static_cast<unsigned long long>(windowed_midstream_),
      static_cast<unsigned long long>(midstream_mismatch_),
      static_cast<unsigned long long>(recombined_mismatch_));

  if (run_->tracer.enabled()) {
    Report& layers = run_->layers;
    layers.Set("driver.latency_p99_ms",
               subscribe_ms.BlockQuantiles(kLatencyBlock, 0.99)
                   .Quantile(kFastTimeQuantile),
               "ms");
    double all_ops = ops * slices;
    layers.Set("serve.unsubscribe_ack_ms", unsubscribe_ms.Median(), "ms");
    layers.Set("serve.wal_appends_per_op",
               static_cast<double>(wal_appends) / all_ops, "count");
    layers.Set("serve.wal_fsync_us_per_op",
               static_cast<double>(wal_fsync_us) / all_ops, "us");
    layers.Set("serve.rss_kb_per_subscribe", rss_kb_per_subscribe.Median(),
               "kB");
    layers.Set("sharing.live_queries", static_cast<double>(kPopulation),
               "count");
    layers.Set("sharing.midstream_window_mismatch",
               static_cast<double>(midstream_mismatch_), "count");
    layers.Set("sharing.recombined_window_mismatch",
               static_cast<double>(recombined_mismatch_), "count");
  }
  return Status::Ok();
}

}  // namespace

Status RunServeSubscribe(RunContext* run) {
  Driver driver(run->options, run);
  return driver.Run();
}

}  // namespace streamshare::perfbench
