// Pieces the two serve workloads share: launching a daemon life, and the
// in-process rebuild of a restart from the durable files it read.

#ifndef STREAMSHARE_PERFBENCH_SERVE_COMMON_H_
#define STREAMSHARE_PERFBENCH_SERVE_COMMON_H_

#include <string>
#include <vector>

#include "bench_common.h"
#include "serve/client.h"
#include "serve/control.h"

namespace streamshare::perfbench {

/// One daemon's files: checkpoint (its WAL lies beside it), metrics CSV
/// written at drain, and stderr.
struct DaemonFiles {
  std::string dir;
  std::string checkpoint() const { return dir + "/ckpt"; }
  std::string wal() const { return dir + "/ckpt.wal"; }
  std::string metrics() const { return dir + "/metrics.csv"; }
  std::string stderr_log() const { return dir + "/daemon.err"; }
};

/// Creates `dir` empty.
Result<DaemonFiles> FreshDaemonFiles(const std::string& dir);

/// Starts (or restarts, when the files exist) streamshare_serve on the
/// grid scenario whose streams match BenchScenario(seed).
Status StartDaemon(const RunOptions& options, const DaemonFiles& files,
                   DaemonProcess* daemon);

serve::ClientOptions ClientFor(const DaemonProcess& daemon,
                               const std::string& name);

/// Copies the checkpoint and WAL to `dir` (what a restart will read).
Status SnapshotDurableFiles(const DaemonFiles& files, const std::string& dir);

/// Rebuilds a restart in-process from a snapshot of the durable files,
/// timing LoadCheckpoint, RecoverWal and the replay (BuildSystem, logged
/// events and regenerated item history); medians of three rebuilds.
/// `recovery_ms` is the median measured kill -9 → Hello figure; what the
/// stages do not cover (exec, the daemon's fold and fsyncs, bind, Hello)
/// is reported as serve.recovery.unattributed_ms.
Status TraceRecovery(const workload::ScenarioSpec& scenario,
                     const std::string& snapshot_dir, double recovery_ms,
                     Tracer* tracer, Report* layers);

/// Per-query observation a daemon reports through the Stats verb.
Observation FromStat(const serve::QueryStat& stat);
Observation FromClient(const serve::ClientQueryResults& results);

}  // namespace streamshare::perfbench

#endif  // STREAMSHARE_PERFBENCH_SERVE_COMMON_H_
