// grid_feed: the per-item engine path with no socket, codec or WAL.
//
// Every round builds a fresh stream-sharing deployment of the 100 grid
// queries (the set-up sample), then feeds the same fixed item chunks
// through StreamShareSystem::Feed, ends the streams and checks every
// query against a data-shipping evaluation of the same items made once
// before the clock starts. Rounds repeat until the run's time is up, so
// every run attempts whole rounds of identical operations.

#include <algorithm>
#include <cstdio>

#include "wxquery/analyzer.h"
#include "workloads.h"

namespace streamshare::perfbench {

namespace {

constexpr uint64_t kRoundItems = 10000;  // per stream
constexpr uint64_t kChunkItems = 100;    // per stream per Feed
// History a restarted daemon would replay (per stream); the in-process
// replay of it is grid_feed's recovery figure.
constexpr uint64_t kReplayItems = 2000;

struct Deployment {
  std::unique_ptr<sharing::StreamShareSystem> system;
  std::vector<sharing::RegistrationResult> registrations;
};

Result<Deployment> Deploy(const workload::ScenarioSpec& scenario,
                          Tracer* tracer, uint64_t op) {
  Deployment deployment;
  SS_ASSIGN_OR_RETURN(deployment.system,
                      workload::BuildSystem(scenario, sharing::SystemConfig()));
  ScopedSpan deploy(tracer, "grid.deploy", op);
  for (const workload::QuerySpec& query : scenario.queries) {
    if (tracer->enabled()) {
      ScopedSpan span(tracer, "wxquery.parse_analyze", op, deploy.id());
      SS_RETURN_IF_ERROR(wxquery::ParseAndAnalyze(query.text).status());
    }
    int64_t span = tracer->Begin("sharing.register", op, deploy.id());
    SS_ASSIGN_OR_RETURN(
        sharing::RegistrationResult result,
        deployment.system->RegisterQuery(query.text, query.target,
                                         sharing::Strategy::kStreamSharing));
    tracer->End(span);
    if (!result.accepted || result.sink == nullptr) {
      return Status::Internal("grid query rejected: " + result.reject_reason);
    }
    result.sink->EnableContentHash();
    deployment.registrations.push_back(std::move(result));
  }
  return deployment;
}

}  // namespace

Status RunGridFeed(RunContext* run) {
  Tracer* tracer = &run->tracer;
  workload::ScenarioSpec scenario = BenchScenario(run->options.seed);

  // The reference: the same items, data shipping, computed before timing.
  std::vector<Observation> expected;
  double reference_bytes_per_item = 0.0;
  {
    SS_ASSIGN_OR_RETURN(std::unique_ptr<Reference> reference,
                        Reference::Create(scenario));
    std::vector<int> ids;
    for (const workload::QuerySpec& query : scenario.queries) {
      SS_ASSIGN_OR_RETURN(int id, reference->Subscribe(query.text,
                                                       query.target));
      ids.push_back(id);
    }
    for (uint64_t fed = 0; fed < kRoundItems; fed += kChunkItems) {
      SS_RETURN_IF_ERROR(reference->Feed(kChunkItems));
    }
    SS_RETURN_IF_ERROR(reference->Shutdown());
    for (int id : ids) expected.push_back(reference->Observe(id));
    reference_bytes_per_item =
        static_cast<double>(LinkBytes(reference->system())) /
        (2.0 * kRoundItems);
  }

  Samples setup_s, replay_s, throughput, cpu_us, chunk_ms, round_p50_ms,
      kb_per_item;
  double deadline = Now() + run->options.seconds;
  uint64_t round = 0;
  uint64_t input_items = 0;
  uint64_t recombined_mismatch = 0;  // per round; every round is the same
  std::unique_ptr<sharing::StreamShareSystem> last;
  std::vector<sharing::RegistrationResult> last_registrations;
  while (round < 3 || Now() < deadline) {
    double t0 = Now();
    SS_ASSIGN_OR_RETURN(Deployment deployment,
                        Deploy(scenario, tracer, round));
    setup_s.Add(Now() - t0);
    run->e2e.attempted += deployment.registrations.size();

    std::vector<workload::PhotonGenerator> generators =
        MakeGenerators(scenario);
    Samples round_ms;
    double cpu0 = ProcessCpuSeconds();
    double feed0 = Now();
    for (uint64_t fed = 0; fed < kRoundItems; fed += kChunkItems) {
      double c0 = Now();
      ScopedSpan chunk(tracer, "grid.chunk", round);
      int64_t generate =
          tracer->Begin("workload.generate", round, chunk.id());
      auto items = GenerateItems(scenario, &generators, kChunkItems);
      tracer->End(generate);
      int64_t feed = tracer->Begin("engine.feed", round, chunk.id());
      SS_RETURN_IF_ERROR(deployment.system->Feed(items));
      tracer->End(feed);
      round_ms.Add((Now() - c0) * 1e3);
      ++run->e2e.attempted;
    }
    {
      ScopedSpan span(tracer, "engine.feed", round);
      SS_RETURN_IF_ERROR(deployment.system->Shutdown());
    }
    double feed_s = Now() - feed0;
    chunk_ms.Append(round_ms);
    round_p50_ms.Add(round_ms.Median());
    double items = 2.0 * kRoundItems;
    throughput.Add(items / feed_s);
    cpu_us.Add((ProcessCpuSeconds() - cpu0) * 1e6 / items);
    input_items += 2 * kRoundItems;

    recombined_mismatch = 0;
    for (size_t q = 0; q < expected.size(); ++q) {
      Observation got = ObserveSink(deployment.registrations[q].sink);
      if (got == expected[q]) continue;
      if (RecombinesWindows(deployment.registrations[q])) {
        ++recombined_mismatch;  // known fault, counted (see README)
      } else {
        run->e2e.Fail("grid_feed query " + std::to_string(q) + ": got " +
                      ToString(got) + ", data shipping gave " +
                      ToString(expected[q]));
      }
    }
    double bytes_per_item =
        static_cast<double>(LinkBytes(*deployment.system)) / items;
    if (!(bytes_per_item < reference_bytes_per_item)) {
      run->e2e.Fail("stream sharing moved " + std::to_string(bytes_per_item) +
                    " link bytes per item, data shipping " +
                    std::to_string(reference_bytes_per_item));
    }
    kb_per_item.Add(bytes_per_item / 1024.0);

    // Replay: what a restarted daemon does to rebuild a fixed history —
    // a fresh deployment, then the history regenerated and fed at once.
    double r0 = Now();
    {
      Tracer off(false);
      SS_ASSIGN_OR_RETURN(Deployment replay, Deploy(scenario, &off, round));
      std::vector<workload::PhotonGenerator> replay_generators =
          MakeGenerators(scenario);
      SS_RETURN_IF_ERROR(replay.system->Feed(
          GenerateItems(scenario, &replay_generators, kReplayItems)));
    }
    replay_s.Add(Now() - r0);

    last = std::move(deployment.system);
    last_registrations = std::move(deployment.registrations);
    ++round;
  }

  Report& e2e = run->e2e;
  e2e.Set("setup_s", setup_s.Median(), "s");
  e2e.Set("throughput_per_s", throughput.Quantile(kFastRateQuantile), "1/s");
  e2e.Set("latency_p50_ms", round_p50_ms.Quantile(kFastTimeQuantile), "ms");
  e2e.Set("cpu_us_per_op", cpu_us.Quantile(kFastTimeQuantile), "us");
  e2e.Set("rss_mb", static_cast<double>(PeakRssKb()) / 1024.0, "MB");
  e2e.Set("recovery_s", replay_s.Quantile(kFastTimeQuantile), "s");
  e2e.Set("network_kb_per_item", kb_per_item.Median(), "KB");
  std::printf(
      "grid_feed rounds=%llu items_per_round=%llu chunk_samples=%zu "
      "data_shipping_kb_per_item=%.2f recombined_window_mismatch=%llu\n",
      static_cast<unsigned long long>(round),
      static_cast<unsigned long long>(2 * kRoundItems), chunk_ms.size(),
      reference_bytes_per_item / 1024.0,
      static_cast<unsigned long long>(recombined_mismatch));

  if (tracer->enabled()) {
    Report& layers = run->layers;
    layers.Set("driver.latency_p99_ms",
               chunk_ms.BlockQuantiles(kLatencyBlock, 0.99)
                   .Quantile(kFastTimeQuantile),
               "ms");
    double items = static_cast<double>(input_items);
    layers.Set("workload.generate_us_per_item",
               tracer->TotalUs("workload.generate") / items, "us");
    layers.Set("engine.feed_us_per_item",
               tracer->TotalUs("engine.feed") / items, "us");
    ReportEngineCounters(*last, 2.0 * kRoundItems, &layers);
    auto mean_us = [tracer](const char* span) {
      return tracer->TotalUs(span) / static_cast<double>(tracer->Count(span));
    };
    double register_us = mean_us("sharing.register");
    double analyze_us = mean_us("wxquery.parse_analyze");
    layers.Set("sharing.register_us", register_us, "us");
    layers.Set("wxquery.parse_analyze_us", analyze_us, "us");
    layers.Set("sharing.plan_deploy_us", register_us - analyze_us, "us");
    double reused = 0, examined = 0, matched = 0;
    for (const sharing::RegistrationResult& result : last_registrations) {
      if (ReusesStream(*last, result)) ++reused;
      examined += result.search.candidates_examined;
      matched += result.search.candidates_matched;
    }
    double registrations = static_cast<double>(last_registrations.size());
    layers.Set("sharing.reuse_share", reused / registrations, "share");
    layers.Set("sharing.candidates_examined", examined / registrations,
               "count");
    layers.Set("sharing.candidates_matched_share",
               examined > 0 ? matched / examined : 0.0, "share");
    layers.Set("sharing.live_queries", registrations, "count");
    layers.Set("sharing.recombined_window_mismatch",
               static_cast<double>(recombined_mismatch), "count");
  }
  return Status::Ok();
}

bool ReusesStream(const sharing::StreamShareSystem& system,
                  const sharing::RegistrationResult& result) {
  for (const sharing::InputPlan& input : result.plan.inputs) {
    if (input.reused_stream >= 0 &&
        !system.registry().stream(input.reused_stream).IsOriginal()) {
      return true;
    }
  }
  return false;
}

void ReportEngineCounters(const sharing::StreamShareSystem& system,
                          double input_items, Report* layers) {
  const engine::Metrics& metrics = system.metrics();
  double total = metrics.TotalWork();
  double busiest = 0.0;
  for (size_t p = 0; p < metrics.peer_count(); ++p) {
    busiest = std::max(busiest,
                       metrics.WorkAtPeer(static_cast<network::NodeId>(p)));
  }
  double results = 0.0;
  for (const sharing::RegistrationResult& result : system.registrations()) {
    if (result.sink != nullptr) {
      results += static_cast<double>(result.sink->item_count());
    }
  }
  layers->Set("engine.work_units_per_item", total / input_items, "count");
  layers->Set("engine.busiest_peer_work_share",
              total > 0 ? busiest / total : 0.0, "share");
  layers->Set("engine.results_per_item", results / input_items, "count");
}

}  // namespace streamshare::perfbench
