// The benchmark's three workloads. Each one runs its inputs, checks every
// output against the data-shipping reference, and fills `e2e` with the
// end-to-end metrics and (when the tracer is enabled) `layers` with the
// per-layer ones. A hard error (an unexpected Status from the system)
// returns non-Ok; a wrong output marks the report incorrect.

#ifndef STREAMSHARE_PERFBENCH_WORKLOADS_H_
#define STREAMSHARE_PERFBENCH_WORKLOADS_H_

#include "bench_common.h"

namespace streamshare::perfbench {

struct RunContext {
  RunOptions options;
  Report e2e;
  Report layers;
  Tracer tracer{false};
};

/// Per-item engine path in-process: StreamShareSystem::Feed rounds.
Status RunGridFeed(RunContext* run);

/// One client feeding a real daemon: closed loop, paced loop, kill -9.
Status RunServeFeed(RunContext* run);

/// Concurrent clients subscribing and unsubscribing against a daemon.
Status RunServeSubscribe(RunContext* run);

/// True when a registration's plan taps a derived (shared) stream.
bool ReusesStream(const sharing::StreamShareSystem& system,
                  const sharing::RegistrationResult& result);

/// Engine counters of a deployment per input item: work units, the
/// busiest peer's share of the work, and results delivered.
void ReportEngineCounters(const sharing::StreamShareSystem& system,
                          double input_items, Report* layers);

}  // namespace streamshare::perfbench

#endif  // STREAMSHARE_PERFBENCH_WORKLOADS_H_
