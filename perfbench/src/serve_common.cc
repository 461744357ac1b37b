#include "serve_common.h"

#include <filesystem>

#include "serve/checkpoint.h"
#include "serve/wal.h"

namespace streamshare::perfbench {

Result<DaemonFiles> FreshDaemonFiles(const std::string& dir) {
  std::error_code error;
  std::filesystem::remove_all(dir, error);
  if (!std::filesystem::create_directories(dir, error)) {
    return Status::Internal("cannot create " + dir);
  }
  DaemonFiles files;
  files.dir = dir;
  return files;
}

Status StartDaemon(const RunOptions& options, const DaemonFiles& files,
                   DaemonProcess* daemon) {
  return daemon->Start(
      options.serve_bin,
      {"--scenario=grid", "--seed=" + std::to_string(StreamSeed(options.seed)),
       "--port=0", "--checkpoint=" + files.checkpoint(),
       "--metrics=" + files.metrics()},
      files.stderr_log());
}

serve::ClientOptions ClientFor(const DaemonProcess& daemon,
                               const std::string& name) {
  serve::ClientOptions options;
  options.port = daemon.port();
  options.name = name;
  options.timeout_ms = 60000;
  return options;
}

Status SnapshotDurableFiles(const DaemonFiles& files, const std::string& dir) {
  std::error_code error;
  std::filesystem::remove_all(dir, error);
  std::filesystem::create_directories(dir, error);
  for (const std::string& path : {files.checkpoint(), files.wal()}) {
    if (!std::filesystem::exists(path)) continue;
    std::filesystem::copy_file(
        path, dir + "/" + std::filesystem::path(path).filename().string(),
        std::filesystem::copy_options::overwrite_existing, error);
    if (error) return Status::Internal("cannot copy " + path);
  }
  return Status::Ok();
}

namespace {

/// The replay half of a restart: what ServeDaemon does between reading
/// its files and listening, rebuilt from public calls.
class Replayer {
 public:
  explicit Replayer(const workload::ScenarioSpec& scenario)
      : scenario_(scenario), generators_(MakeGenerators(scenario)) {}

  Status Build() {
    sharing::SystemConfig config;
    config.keep_results = true;  // the daemon's sinks are its delivery log
    SS_ASSIGN_OR_RETURN(system_, workload::BuildSystem(scenario_, config));
    return Status::Ok();
  }

  Status FeedTo(uint64_t offset) {
    if (offset <= fed_) return Status::Ok();
    SS_RETURN_IF_ERROR(
        system_->Feed(GenerateItems(scenario_, &generators_, offset - fed_)));
    fed_ = offset;
    return Status::Ok();
  }

  Status Apply(const serve::LogEvent& event) {
    SS_RETURN_IF_ERROR(FeedTo(event.at_items));
    ++events_;
    switch (event.kind) {
      case serve::LogEvent::Kind::kSubscribe: {
        sharing::Strategy strategy =
            event.strategy == 0   ? sharing::Strategy::kDataShipping
            : event.strategy == 1 ? sharing::Strategy::kQueryShipping
                                  : sharing::Strategy::kStreamSharing;
        SS_ASSIGN_OR_RETURN(
            sharing::RegistrationResult result,
            system_->RegisterQuery(event.query_text,
                                   static_cast<network::NodeId>(event.vq),
                                   strategy));
        if (result.sink != nullptr) result.sink->EnableContentHash();
        return Status::Ok();
      }
      case serve::LogEvent::Kind::kUnsubscribe:
        return system_->Unsubscribe(static_cast<int>(event.query_id));
      default:
        return Status::Unsupported("the benchmark logs no churn events");
    }
  }

  uint64_t fed() const { return fed_; }
  uint64_t events() const { return events_; }

 private:
  const workload::ScenarioSpec& scenario_;
  std::vector<workload::PhotonGenerator> generators_;
  std::unique_ptr<sharing::StreamShareSystem> system_;
  uint64_t fed_ = 0;
  uint64_t events_ = 0;
};

}  // namespace

Status TraceRecovery(const workload::ScenarioSpec& scenario,
                     const std::string& snapshot_dir, double recovery_ms,
                     Tracer* tracer, Report* layers) {
  constexpr int kRepeats = 3;
  const std::string checkpoint_path = snapshot_dir + "/ckpt";
  Samples load_ms, scan_ms, replay_ms;
  uint64_t items = 0, events = 0;
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    serve::Checkpoint checkpoint;
    ScopedSpan restart(tracer, "serve.recovery", repeat);
    double t0 = Now();
    int64_t load = tracer->Begin("serve.recovery.checkpoint_load", repeat,
                                 restart.id());
    Result<serve::Checkpoint> loaded = serve::LoadCheckpoint(checkpoint_path);
    tracer->End(load);
    double t1 = Now();
    if (loaded.ok()) {
      checkpoint = std::move(*loaded);
    } else if (!loaded.status().IsNotFound()) {
      return loaded.status();
    }
    int64_t scan =
        tracer->Begin("serve.recovery.wal_scan", repeat, restart.id());
    Result<serve::WalRecovery> wal =
        serve::RecoverWal(serve::DefaultWalPath(checkpoint_path));
    tracer->End(scan);
    double t2 = Now();

    int64_t replay =
        tracer->Begin("serve.recovery.replay", repeat, restart.id());
    Replayer replayer(scenario);
    SS_RETURN_IF_ERROR(replayer.Build());
    for (const serve::LogEvent& event : checkpoint.events) {
      SS_RETURN_IF_ERROR(replayer.Apply(event));
    }
    SS_RETURN_IF_ERROR(replayer.FeedTo(checkpoint.items_fed));
    if (wal.ok() && !wal->torn_header &&
        wal->header.base_generation == checkpoint.generation) {
      for (const serve::WalRecord& record : wal->records) {
        if (record.kind == serve::WalRecord::Kind::kFeed) {
          SS_RETURN_IF_ERROR(replayer.FeedTo(record.items_fed));
        } else {
          SS_RETURN_IF_ERROR(replayer.Apply(record.event));
        }
      }
    }
    tracer->End(replay);
    double t3 = Now();
    load_ms.Add((t1 - t0) * 1e3);
    scan_ms.Add((t2 - t1) * 1e3);
    replay_ms.Add((t3 - t2) * 1e3);
    items = replayer.fed() * scenario.streams.size();
    events = replayer.events();
  }

  layers->Set("serve.recovery.checkpoint_load_ms", load_ms.Median(), "ms");
  layers->Set("serve.recovery.wal_scan_ms", scan_ms.Median(), "ms");
  layers->Set("serve.recovery.replay_ms", replay_ms.Median(), "ms");
  layers->Set("serve.recovery.unattributed_ms",
              recovery_ms - load_ms.Median() - scan_ms.Median() -
                  replay_ms.Median(),
              "ms");
  layers->Set("serve.recovery.items_replayed", static_cast<double>(items),
              "count");
  layers->Set("serve.recovery.events_replayed", static_cast<double>(events),
              "count");
  return Status::Ok();
}

Observation FromStat(const serve::QueryStat& stat) {
  Observation observation;
  observation.items = stat.items;
  observation.bytes = stat.bytes;
  observation.hash = stat.content_hash;
  return observation;
}

Observation FromClient(const serve::ClientQueryResults& results) {
  Observation observation;
  observation.items = results.items;
  observation.bytes = results.bytes;
  observation.hash = results.content_hash;
  return observation;
}

}  // namespace streamshare::perfbench
