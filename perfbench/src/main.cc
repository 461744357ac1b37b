// The StreamShare benchmark driver.
//
//   perfbench_driver --workload grid_feed|serve_feed|serve_subscribe
//                    --seed N --seconds S --trace 0|1
//                    --serve-bin PATH --work-dir DIR
//
// Runs one workload, checks its outputs, and prints as its last line one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// records spans around its calls into each layer and prints the
// per-layer metrics instead (every name, 0 where the workload does not
// exercise that layer), and writes the spans to DIR/spans-<workload>.jsonl.
// Exit code 0 only when the run completed and every check passed.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

using namespace streamshare;
using namespace streamshare::perfbench;

namespace {

const char* const kEndToEnd[] = {
    "setup_s",       "throughput_per_s", "latency_p50_ms", "cpu_us_per_op",
    "rss_mb",        "recovery_s",       "network_kb_per_item"};

struct LayerMetric {
  const char* name;
  const char* unit;
};

const LayerMetric kLayers[] = {
    {"workload.generate_us_per_item", "us"},
    {"engine.feed_us_per_item", "us"},
    {"engine.work_units_per_item", "count"},
    {"engine.busiest_peer_work_share", "share"},
    {"engine.results_per_item", "count"},
    {"sharing.reuse_share", "share"},
    {"sharing.register_us", "us"},
    {"serve.feed_generate_us", "us"},
    {"serve.feed_engine_us", "us"},
    {"transport.encode_us_per_result", "us"},
    {"transport.decode_us_per_result", "us"},
    {"transport.bytes_per_result", "B"},
    {"serve.results_per_feed", "count"},
    {"serve.unattributed_us_per_feed", "us"},
    {"serve.rss_kb_per_item", "kB"},
    {"driver.lag_ms_p99", "ms"},
    {"driver.latency_p99_ms", "ms"},
    {"wxquery.parse_analyze_us", "us"},
    {"sharing.plan_deploy_us", "us"},
    {"sharing.candidates_examined", "count"},
    {"sharing.candidates_matched_share", "share"},
    {"serve.unattributed_us_per_subscribe", "us"},
    {"sharing.unsubscribe_us", "us"},
    {"serve.unsubscribe_ack_ms", "ms"},
    {"serve.wal_appends_per_op", "count"},
    {"serve.wal_fsync_us_per_op", "us"},
    {"serve.wal_append_us", "us"},
    {"serve.rss_kb_per_subscribe", "kB"},
    {"sharing.live_queries", "count"},
    {"sharing.midstream_window_mismatch", "count"},
    {"sharing.recombined_window_mismatch", "count"},
    {"serve.recovery.checkpoint_load_ms", "ms"},
    {"serve.recovery.wal_scan_ms", "ms"},
    {"serve.recovery.replay_ms", "ms"},
    {"serve.recovery.unattributed_ms", "ms"},
    {"serve.recovery.items_replayed", "count"},
    {"serve.recovery.events_replayed", "count"},
    {"trace.spans", "count"},
    {"trace.overhead_share", "share"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 --serve-bin PATH --work-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunContext run;
  RunOptions& options = run.options;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--serve-bin") {
      options.serve_bin = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || options.workload.empty() || options.work_dir.empty() ||
      options.serve_bin.empty() || !(options.seconds > 0)) {
    return Usage();
  }
  run.tracer = Tracer(options.trace);
  if (options.trace) {
    for (const LayerMetric& metric : kLayers) {
      run.layers.Set(metric.name, 0.0, metric.unit);
    }
  }

  double start = Now();
  Status status;
  if (options.workload == "grid_feed") {
    status = RunGridFeed(&run);
  } else if (options.workload == "serve_feed") {
    status = RunServeFeed(&run);
  } else if (options.workload == "serve_subscribe") {
    status = RunServeSubscribe(&run);
  } else {
    return Usage();
  }
  if (!status.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", options.workload.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  double wall = Now() - start;

  Report* out = &run.e2e;
  if (options.trace) {
    double spans = static_cast<double>(run.tracer.span_count());
    run.layers.Set("trace.spans", spans, "count");
    run.layers.Set("trace.overhead_share",
                   spans * Tracer::CostPerSpanUs() * 1e-6 / wall, "share");
    std::string path =
        options.work_dir + "/spans-" + options.workload + ".jsonl";
    Status written = run.tracer.Write(path);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("spans=%zu written to %s\n", run.tracer.span_count(),
                path.c_str());
    run.layers.attempted = run.e2e.attempted;
    run.layers.failed = run.e2e.failed;
    if (!run.e2e.correct()) run.layers.Fail("end-to-end checks failed");
    out = &run.layers;
  } else {
    for (const char* name : kEndToEnd) {
      if (!run.e2e.Has(name)) {
        std::fprintf(stderr, "workload did not report %s\n", name);
        return 1;
      }
    }
  }
  std::printf("workload=%s attempted=%llu failed=%llu correct=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(out->attempted),
              static_cast<unsigned long long>(out->failed),
              out->correct() ? 1 : 0);
  std::printf("%s\n", out->Json().c_str());
  std::fflush(stdout);
  return out->correct() ? 0 : 1;
}
