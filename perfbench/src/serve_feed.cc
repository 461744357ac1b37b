// serve_feed: the item path through a real daemon.
//
// A streamshare_serve process hosts the grid scenario; one client
// connection subscribes the 100 grid queries. The run is a sequence of
// main daemon lives, each of a fixed number of identical slices, until
// the run's time is up; slices are short so that every figure samples
// the whole run (the host's speed changes over seconds to minutes).
// Each slice runs:
//
//   1. one set-up: a fresh daemon, exec → listening → Hello → 100
//      Subscribes, then kill -9;
//   2. two kill -9 → restart → Hello → re-attach cycles of the recovery
//      daemon, which holds a fixed history (the 100 queries and a prefix
//      of 20 feeds), so every restart replays the same work;
//   3. a closed loop of fixed-size Feed verbs on the main daemon
//      (throughput);
//   4. an open loop of Feed verbs due at a fixed rate on the main daemon
//      (latency, timed from when each was due until its ACK, which
//      follows its RESULT frames).
//
// The work per life is fixed, so every main daemon carries the same
// history (its memory) in every run; a life then drains. After every
// restart the recovery daemon, and at the end of every life the main
// daemon, must agree with a data-shipping evaluation of the same items:
// the client's per-query observations and the daemon's Stats alike.

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "serve/wal.h"
#include "serve_common.h"
#include "transport/codec.h"
#include "wxquery/analyzer.h"
#include "workloads.h"

namespace streamshare::perfbench {

namespace {

// A main daemon life runs this many slices, then drains: every life
// carries the same history, whatever the host's speed.
constexpr int kSlicesPerLife = 8;
constexpr uint64_t kPrefixFeeds = 20;
constexpr uint64_t kPrefixChunk = 50;  // items per stream per Feed
constexpr uint64_t kClosedChunk = 100;
constexpr uint64_t kClosedFeedsPerSlice = 10;
// Open loop: one Feed of kPacedChunk items per stream every 1/rate s.
// 2 000 items/s is about a tenth of the closed loop's capacity, and 250
// Feeds/s leave room for the one WAL fsync per Feed when the disk is
// slow, so the daemon keeps up and the paced latency is service time,
// not backlog.
constexpr double kPacedFeedsPerSecond = 250.0;
constexpr uint64_t kPacedChunk = 4;
constexpr uint64_t kPacedFeedsPerSlice = 150;
constexpr int kRestartsPerSlice = 2;

/// Sleeps until shortly before `when`, then spins, so that the load
/// generator's own wake-up latency stays out of the paced figures.
void SleepUntil(double when) {
  constexpr double kSpin = 0.0005;
  double left = when - Now() - kSpin;
  if (left > 0) {
    struct timespec ts;
    ts.tv_sec = static_cast<time_t>(left);
    ts.tv_nsec =
        static_cast<long>((left - static_cast<double>(ts.tv_sec)) * 1e9);
    nanosleep(&ts, nullptr);
  }
  while (Now() < when) {
  }
}

/// The 100 grid queries as one client subscribed them.
struct Population {
  std::vector<int64_t> daemon_ids;
  std::vector<int> reference_ids;
  /// Queries whose plan recombines a finer window stream: a mismatch of
  /// theirs is the known recombination fault, counted, not failed.
  std::vector<bool> recombined;
  uint64_t recombined_mismatch = 0;
};

Status Subscribe(const workload::ScenarioSpec& scenario,
                 serve::ServeClient* client, Tracer* tracer,
                 Population* population, uint64_t* attempted) {
  population->daemon_ids.clear();
  for (const workload::QuerySpec& query : scenario.queries) {
    ScopedSpan span(tracer, "client.subscribe", population->daemon_ids.size());
    SS_ASSIGN_OR_RETURN(serve::SubscribeReply reply,
                        client->Subscribe(query.text, query.target));
    ++*attempted;
    if (!reply.accepted) {
      return Status::Internal("daemon rejected a grid query: " +
                              reply.reject_reason);
    }
    population->daemon_ids.push_back(reply.query_id);
  }
  return Status::Ok();
}

/// Client observation == daemon Stats == data-shipping reference.
Status Check(const std::string& when, Population* population_out,
             serve::ServeClient* client, const Reference& reference,
             Report* report) {
  const Population& population = *population_out;
  population_out->recombined_mismatch = 0;
  SS_ASSIGN_OR_RETURN(serve::StatsReply stats, client->Stats());
  for (size_t q = 0; q < population.daemon_ids.size(); ++q) {
    int64_t id = population.daemon_ids[q];
    if (id < 0 || static_cast<size_t>(id) >= stats.queries.size()) {
      report->Fail(when + ": Stats lacks query " + std::to_string(id));
      continue;
    }
    Observation daemon = FromStat(stats.queries[id]);
    Observation seen = FromClient(client->results(id));
    Observation expected = reference.Observe(population.reference_ids[q]);
    if (!(daemon == seen)) {
      report->Fail(when + ": query " + std::to_string(q) + " daemon " +
                   ToString(daemon) + ", client " + ToString(seen));
    } else if (!(seen == expected) && population.recombined[q]) {
      ++population_out->recombined_mismatch;
    } else if (!(seen == expected)) {
      report->Fail(when + ": query " + std::to_string(q) + " daemon " +
                   ToString(daemon) + ", client " + ToString(seen) +
                   ", data shipping " + ToString(expected));
    }
  }
  return Status::Ok();
}

/// Per-feed stages of the daemon's Feed verb, rebuilt in-process from
/// public calls over the same feed sequence: generation, the engine feed
/// with the delivery log kept, the WAL append, RESULT encoding and the
/// client's decoding.
struct FeedStages {
  double generate_us = 0, engine_us = 0, wal_us = 0, encode_us = 0,
         decode_us = 0;
  double results = 0, result_bytes = 0, feeds = 0;
};

Status TraceFeedPath(const workload::ScenarioSpec& scenario,
                     const std::vector<uint64_t>& feeds,
                     const std::vector<bool>& measured_feeds,
                     const std::string& dir, Tracer* tracer, Report* layers,
                     FeedStages* stages) {
  sharing::SystemConfig config;
  config.keep_results = true;
  SS_ASSIGN_OR_RETURN(std::unique_ptr<sharing::StreamShareSystem> system,
                      workload::BuildSystem(scenario, config));
  std::vector<sharing::RegistrationResult> registrations;
  double analyze_us = 0, register_us = 0;
  for (const workload::QuerySpec& query : scenario.queries) {
    const uint64_t op = registrations.size();
    ScopedSpan subscribe(tracer, "serve.subscribe", op);
    double a0 = Now();
    {
      ScopedSpan span(tracer, "wxquery.parse_analyze", op, subscribe.id());
      SS_RETURN_IF_ERROR(wxquery::ParseAndAnalyze(query.text).status());
    }
    double r0 = Now();
    int64_t span = tracer->Begin("sharing.register", op, subscribe.id());
    SS_ASSIGN_OR_RETURN(
        sharing::RegistrationResult result,
        system->RegisterQuery(query.text, query.target,
                              sharing::Strategy::kStreamSharing));
    tracer->End(span);
    double r1 = Now();
    analyze_us += (r0 - a0) * 1e6;
    register_us += (r1 - r0) * 1e6;
    if (result.sink != nullptr) result.sink->EnableContentHash();
    registrations.push_back(std::move(result));
  }
  double n = static_cast<double>(registrations.size());
  layers->Set("wxquery.parse_analyze_us", analyze_us / n, "us");
  layers->Set("sharing.register_us", register_us / n, "us");
  layers->Set("sharing.plan_deploy_us", (register_us - analyze_us) / n, "us");
  double reused = 0, examined = 0, matched = 0;
  for (const sharing::RegistrationResult& result : registrations) {
    if (ReusesStream(*system, result)) ++reused;
    examined += result.search.candidates_examined;
    matched += result.search.candidates_matched;
  }
  layers->Set("sharing.reuse_share", reused / n, "share");
  layers->Set("sharing.candidates_examined", examined / n, "count");
  layers->Set("sharing.candidates_matched_share",
              examined > 0 ? matched / examined : 0.0, "share");
  layers->Set("sharing.live_queries", n, "count");

  serve::WalHeader header;
  SS_ASSIGN_OR_RETURN(serve::WriteAheadLog wal,
                      serve::WriteAheadLog::Create(dir + "/trace.wal", header));
  std::vector<workload::PhotonGenerator> generators = MakeGenerators(scenario);
  transport::ItemEncoder encoder;
  transport::ItemDecoder decoder;
  std::vector<size_t> forwarded(registrations.size(), 0);
  std::vector<std::string> bodies;
  uint64_t fed = 0;
  double measured_items = 0;
  for (size_t f = 0; f < feeds.size(); ++f) {
    bool measured = measured_feeds[f];
    ScopedSpan feed(tracer, "serve.feed", f);
    double t0 = Now();
    int64_t generate = tracer->Begin("serve.feed_generate", f, feed.id());
    auto items = GenerateItems(scenario, &generators, feeds[f]);
    tracer->End(generate);
    double t1 = Now();
    int64_t engine = tracer->Begin("serve.feed_engine", f, feed.id());
    SS_RETURN_IF_ERROR(system->Feed(items));
    tracer->End(engine);
    double t2 = Now();
    fed += feeds[f];
    {
      ScopedSpan span(tracer, "serve.wal_append", f, feed.id());
      SS_RETURN_IF_ERROR(wal.Append(serve::WalRecord::Feed(fed)));
    }
    double t3 = Now();
    bodies.clear();
    {
      ScopedSpan span(tracer, "transport.encode", f, feed.id());
      std::string encoded;
      for (size_t q = 0; q < registrations.size(); ++q) {
        const std::vector<engine::ItemPtr>& kept =
            registrations[q].sink->items();
        for (; forwarded[q] < kept.size(); ++forwarded[q]) {
          encoded.clear();
          encoder.Encode(*kept[forwarded[q]], &encoded);
          bodies.push_back(serve::EncodeResultFrame(
              registrations[q].query_id, forwarded[q], 0, 0, encoded));
        }
      }
    }
    double t4 = Now();
    {
      ScopedSpan span(tracer, "transport.decode", f, feed.id());
      for (const std::string& body : bodies) {
        SS_ASSIGN_OR_RETURN(serve::ResultFrame frame,
                            serve::DecodeResultFrame(body));
        std::unique_ptr<xml::XmlNode> item;
        SS_RETURN_IF_ERROR(decoder.Decode(frame.item, &item));
      }
    }
    double t5 = Now();
    if (!measured) continue;
    stages->generate_us += (t1 - t0) * 1e6;
    stages->engine_us += (t2 - t1) * 1e6;
    stages->wal_us += (t3 - t2) * 1e6;
    stages->encode_us += (t4 - t3) * 1e6;
    stages->decode_us += (t5 - t4) * 1e6;
    stages->results += static_cast<double>(bodies.size());
    for (const std::string& body : bodies) {
      stages->result_bytes += static_cast<double>(body.size());
    }
    stages->feeds += 1;
    measured_items += static_cast<double>(feeds[f] * scenario.streams.size());
  }
  layers->Set("workload.generate_us_per_item",
              stages->generate_us / measured_items, "us");
  layers->Set("engine.feed_us_per_item", stages->engine_us / measured_items,
              "us");
  ReportEngineCounters(*system,
                       static_cast<double>(fed * scenario.streams.size()),
                       layers);
  return Status::Ok();
}

/// A daemon with its client, the 100 grid queries subscribed, and the
/// data-shipping reference fed the same items.
struct Fleet {
  DaemonFiles files;
  DaemonProcess daemon;
  std::unique_ptr<serve::ServeClient> client;
  Population population;
  std::unique_ptr<Reference> reference;
  std::vector<uint64_t> feeds;  // items per stream of every Feed, in order

  Status Launch(const RunOptions& options,
                const workload::ScenarioSpec& scenario, const std::string& dir,
                Tracer* tracer, uint64_t* attempted) {
    SS_ASSIGN_OR_RETURN(files, FreshDaemonFiles(dir));
    SS_RETURN_IF_ERROR(StartDaemon(options, files, &daemon));
    client = std::make_unique<serve::ServeClient>(
        ClientFor(daemon, "perfbench-feed"));
    SS_RETURN_IF_ERROR(client->Connect());
    return Subscribe(scenario, client.get(), tracer, &population, attempted);
  }

  Status StartReference(const workload::ScenarioSpec& scenario) {
    SS_ASSIGN_OR_RETURN(reference, Reference::Create(scenario));
    population.reference_ids.clear();
    for (const workload::QuerySpec& query : scenario.queries) {
      SS_ASSIGN_OR_RETURN(int id,
                          reference->Subscribe(query.text, query.target));
      population.reference_ids.push_back(id);
    }
    return Status::Ok();
  }

  Status Feed(uint64_t count, uint64_t* attempted) {
    SS_RETURN_IF_ERROR(client->Feed(count).status());
    ++*attempted;
    feeds.push_back(count);
    return Status::Ok();
  }
};

}  // namespace

Status RunServeFeed(RunContext* run) {
  const RunOptions& options = run->options;
  Tracer* tracer = &run->tracer;
  Tracer untraced(false);
  Report& e2e = run->e2e;
  workload::ScenarioSpec scenario = BenchScenario(options.seed);
  const uint64_t streams = scenario.streams.size();
  SS_ASSIGN_OR_RETURN(std::vector<bool> recombined,
                      RecombinedPlans(scenario, scenario.queries));
  const double deadline = Now() + options.seconds;

  // The recovery daemon with its fixed history.
  Fleet recovery;
  recovery.population.recombined = recombined;
  SS_RETURN_IF_ERROR(recovery.Launch(options, scenario,
                                     options.work_dir + "/serve_feed-recovery",
                                     &untraced, &e2e.attempted));
  SS_RETURN_IF_ERROR(recovery.StartReference(scenario));
  for (uint64_t f = 0; f < kPrefixFeeds; ++f) {
    SS_RETURN_IF_ERROR(recovery.Feed(kPrefixChunk, &e2e.attempted));
    SS_RETURN_IF_ERROR(recovery.reference->Feed(kPrefixChunk));
  }
  SS_RETURN_IF_ERROR(Check("after the prefix", &recovery.population,
                           recovery.client.get(), *recovery.reference, &e2e));

  Samples setup_s, recovery_s, throughput, cpu_us, paced_ms, slice_p50_ms,
      lag_ms, closed_feed_us, rss_mb, rss_kb_per_item, kb_per_item;
  const std::string snapshot_dir = options.work_dir + "/serve_feed-restart";
  // The last life's feeds and Stats, for the in-process rebuild.
  std::vector<uint64_t> last_feeds;
  std::vector<bool> closed_feeds;  // per Feed of a life: part of a closed loop
  serve::StatsReply stats;
  uint64_t recombined_mismatch = 0;
  int lives = 0;
  const double lives_start = Now();
  for (bool last = false; !last; ++lives) {
    // A life ends once the run could not fit another of the same length.
    const double mean_life =
        lives > 0 ? (Now() - lives_start) / static_cast<double>(lives) : 0.0;
    last = lives >= 1 && Now() + 2.0 * mean_life > deadline;
    Fleet main;
    main.population.recombined = recombined;
    SS_RETURN_IF_ERROR(main.Launch(options, scenario,
                                   options.work_dir + "/serve_feed-main",
                                   tracer, &e2e.attempted));
    const double rss_after_setup_kb =
        static_cast<double>(main.daemon.PeakRssKb());
    closed_feeds.clear();
    for (int slice = 0; slice < kSlicesPerLife; ++slice) {
      // 1. Set-up of a fresh daemon.
      {
        Fleet fresh;
        double t0 = Now();
        SS_RETURN_IF_ERROR(fresh.Launch(
            options, scenario, options.work_dir + "/serve_feed-setup",
            &untraced, &e2e.attempted));
        setup_s.Add(Now() - t0);
        fresh.client->Close();
        fresh.daemon.Kill9();
      }

      // 2. kill -9 → restart → Hello → re-attach, on the fixed history.
      for (int restart = 0; restart < kRestartsPerSlice; ++restart) {
        double t0 = Now();
        recovery.daemon.Kill9();
        if (tracer->enabled() && recovery_s.size() == 1) {
          // The files a restart reads once the first restart has folded
          // the log, for the in-process rebuild; the copy's time is left
          // out of the recovery figure.
          double c0 = Now();
          SS_RETURN_IF_ERROR(
              SnapshotDurableFiles(recovery.files, snapshot_dir));
          t0 += Now() - c0;
        }
        recovery.client->Close();
        SS_RETURN_IF_ERROR(
            StartDaemon(options, recovery.files, &recovery.daemon));
        recovery.client->set_port(recovery.daemon.port());
        SS_RETURN_IF_ERROR(recovery.client->Connect());
        recovery_s.Add(Now() - t0);
        ++e2e.attempted;
        for (int64_t id : recovery.population.daemon_ids) {
          SS_RETURN_IF_ERROR(
              recovery.client
                  ->Attach(id, recovery.client->results(id).next_seq)
                  .status());
          ++e2e.attempted;
        }
        SS_RETURN_IF_ERROR(Check("after restart " +
                                     std::to_string(recovery_s.size()),
                                 &recovery.population, recovery.client.get(),
                                 *recovery.reference, &e2e));
      }

      // 3. Closed loop.
      double cpu0 = main.daemon.CpuSeconds();
      double t0 = Now();
      for (uint64_t f = 0; f < kClosedFeedsPerSlice; ++f) {
        double f0 = Now();
        int64_t span = tracer->Begin("client.feed", main.feeds.size());
        SS_RETURN_IF_ERROR(main.Feed(kClosedChunk, &e2e.attempted));
        tracer->End(span);
        closed_feed_us.Add((Now() - f0) * 1e6);
        closed_feeds.push_back(true);
      }
      double closed_items =
          static_cast<double>(kClosedFeedsPerSlice * kClosedChunk * streams);
      throughput.Add(closed_items / (Now() - t0));
      cpu_us.Add((main.daemon.CpuSeconds() - cpu0) * 1e6 / closed_items);

      // 4. Open loop at a fixed offered rate.
      Samples slice_ms;
      double start = Now() + 0.01;
      for (uint64_t f = 0; f < kPacedFeedsPerSlice; ++f) {
        double due = start + static_cast<double>(f) / kPacedFeedsPerSecond;
        SleepUntil(due);
        lag_ms.Add((Now() - due) * 1e3);
        SS_RETURN_IF_ERROR(main.Feed(kPacedChunk, &e2e.attempted));
        slice_ms.Add((Now() - due) * 1e3);
        closed_feeds.push_back(false);
      }
      paced_ms.Append(slice_ms);
      slice_p50_ms.Add(slice_ms.Median());
    }

    // End of the life: checks, memory and traffic, untimed.
    SS_ASSIGN_OR_RETURN(stats, main.client->Stats());
    SS_RETURN_IF_ERROR(main.StartReference(scenario));
    for (uint64_t count : main.feeds) {
      SS_RETURN_IF_ERROR(main.reference->Feed(count));
    }
    SS_RETURN_IF_ERROR(Check("at the end of life " + std::to_string(lives + 1),
                             &main.population, main.client.get(),
                             *main.reference, &e2e));
    recombined_mismatch = main.population.recombined_mismatch;
    main.reference.reset();
    const double rss_kb = static_cast<double>(main.daemon.PeakRssKb());
    main.client->Close();
    SS_RETURN_IF_ERROR(main.daemon.Terminate());
    uint64_t fed = 0;
    for (uint64_t count : main.feeds) fed += count;
    SS_ASSIGN_OR_RETURN(double link_bytes,
                        LinkBytesFromMetricsCsv(main.files.metrics()));
    const double items = static_cast<double>(fed * streams);
    rss_mb.Add(rss_kb / 1024.0);
    rss_kb_per_item.Add((rss_kb - rss_after_setup_kb) / items);
    kb_per_item.Add(link_bytes / items / 1024.0);
    last_feeds = main.feeds;
  }
  // Freed before the in-process rebuilds, which time allocations.
  recovery.reference.reset();
  recovery.client->Close();
  recovery.daemon.Kill9();

  e2e.Set("setup_s", setup_s.Median(), "s");
  e2e.Set("throughput_per_s", throughput.Quantile(kFastRateQuantile), "1/s");
  e2e.Set("latency_p50_ms", slice_p50_ms.Quantile(kFastTimeQuantile), "ms");
  e2e.Set("cpu_us_per_op", cpu_us.Quantile(kFastTimeQuantile), "us");
  e2e.Set("rss_mb", rss_mb.Median(), "MB");
  e2e.Set("recovery_s", recovery_s.Quantile(kFastTimeQuantile), "s");
  e2e.Set("network_kb_per_item", kb_per_item.Median(), "KB");
  std::printf(
      "serve_feed lives=%d slices=%zu items_fed_per_stream_per_life=%llu "
      "paced_samples=%zu paced_rate_items_per_s=%.0f "
      "recombined_window_mismatch=%llu\n",
      lives, throughput.size(),
      static_cast<unsigned long long>(
          kSlicesPerLife * (kClosedFeedsPerSlice * kClosedChunk +
                            kPacedFeedsPerSlice * kPacedChunk)),
      paced_ms.size(),
      kPacedFeedsPerSecond * static_cast<double>(kPacedChunk * streams),
      static_cast<unsigned long long>(recombined_mismatch));

  if (tracer->enabled()) {
    Report& layers = run->layers;
    layers.Set("driver.latency_p99_ms",
               paced_ms.BlockQuantiles(kLatencyBlock, 0.99)
                   .Quantile(kFastTimeQuantile),
               "ms");
    SS_RETURN_IF_ERROR(TraceRecovery(scenario, snapshot_dir,
                                     recovery_s.Median() * 1e3,
                                     tracer, &layers));
    FeedStages stages;
    SS_RETURN_IF_ERROR(TraceFeedPath(scenario, last_feeds, closed_feeds,
                                     options.work_dir, tracer, &layers,
                                     &stages));
    double per_feed = stages.feeds;
    layers.Set("serve.feed_generate_us", stages.generate_us / per_feed, "us");
    layers.Set("serve.feed_engine_us", stages.engine_us / per_feed, "us");
    layers.Set("serve.wal_append_us", stages.wal_us / per_feed, "us");
    layers.Set("transport.encode_us_per_result",
               stages.encode_us / stages.results, "us");
    layers.Set("transport.decode_us_per_result",
               stages.decode_us / stages.results, "us");
    layers.Set("transport.bytes_per_result",
               stages.result_bytes / stages.results, "B");
    layers.Set("serve.results_per_feed", stages.results / per_feed, "count");
    double attributed = (stages.generate_us + stages.engine_us +
                         stages.wal_us + stages.encode_us + stages.decode_us) /
                        per_feed;
    layers.Set("serve.unattributed_us_per_feed",
               closed_feed_us.Sum() /
                       static_cast<double>(closed_feed_us.size()) -
                   attributed,
               "us");
    layers.Set("serve.rss_kb_per_item", rss_kb_per_item.Median(), "kB");
    layers.Set("driver.lag_ms_p99", lag_ms.Quantile(0.99), "ms");
    layers.Set("sharing.recombined_window_mismatch",
               static_cast<double>(recombined_mismatch),
               "count");
    double feeds = static_cast<double>(last_feeds.size());
    layers.Set("serve.wal_appends_per_op",
               static_cast<double>(stats.wal_appends) / feeds, "count");
    layers.Set("serve.wal_fsync_us_per_op",
               static_cast<double>(stats.wal_fsync_us) / feeds, "us");
  }
  return Status::Ok();
}

}  // namespace streamshare::perfbench
