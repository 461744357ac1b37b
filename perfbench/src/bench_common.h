// Shared pieces of the StreamShare benchmark driver: clocks and order
// statistics, the result line, the in-memory span tracer, the daemon
// child process, and the data-shipping reference every workload checks
// its outputs against.

#ifndef STREAMSHARE_PERFBENCH_COMMON_H_
#define STREAMSHARE_PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "sharing/system.h"
#include "workload/photon_gen.h"
#include "workload/scenario.h"

namespace streamshare::perfbench {

/// Command-line settings of one run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_bin;  // streamshare_serve built from this checkout
  std::string work_dir;   // scratch space for this run (checkpoints, spans)
};

/// Steady-clock seconds since an arbitrary epoch.
double Now();

/// CPU time of this process (all threads), in seconds.
double ProcessCpuSeconds();

/// Peak resident set (VmHWM) of `pid` in kB (0 = this process).
uint64_t PeakRssKb(pid_t pid = 0);

/// Quantiles a workload reports across the identical rounds (or slices)
/// of a run. The host alternates between fast and slow phases lasting
/// seconds to minutes (the same code runs up to 2x slower), so the
/// per-round figures of one run are bimodal and their median flips
/// between the modes from run to run; a quantile near the fast end
/// repeats better, the more so the shorter the fast stretches it has to
/// catch. Rates take the upper one, times the lower one; both need a few
/// dozen rounds or slices per run.
inline constexpr double kFastRateQuantile = 0.95;
inline constexpr double kFastTimeQuantile = 0.05;
/// Latency samples are cut, in time order, into blocks of this many; a
/// block's 99th percentile then has ten samples beyond it.
inline constexpr size_t kLatencyBlock = 1000;

/// Order statistics over a sample set. Quantiles interpolate linearly
/// between the closest ranks.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Sum() const;
  /// The q-quantile of each consecutive block of `block` samples, in the
  /// order they were added (a trailing partial block is dropped; fewer
  /// samples than one block make one block).
  Samples BlockQuantiles(size_t block, double q) const;

 private:
  std::vector<double> values_;
};

/// The last line of a run: correctness, operation counts and metrics.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Marks the run incorrect; the message goes to stderr at once.
  void Fail(const std::string& message);
  bool Has(const std::string& name) const;
  bool correct() const { return correct_; }
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string Json() const;

 private:
  bool correct_ = true;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
};

/// In-memory span recorder. A span has a name, start and end (steady
/// clock, ns), the span that caused it and the id of the operation it
/// belongs to. Disabled, every call is a no-op and costs one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Opens a span; returns its index (or -1 when disabled).
  int64_t Begin(const char* name, uint64_t op_id, int64_t parent = -1);
  void End(int64_t span);

  /// Summed duration (µs) and count of closed spans named `name`.
  double TotalUs(const std::string& name) const;
  size_t Count(const std::string& name) const;
  size_t span_count() const { return spans_.size(); }

  /// Measured cost of one Begin/End pair on this host, in µs.
  static double CostPerSpanUs();

  /// Writes one JSON object per span to `path`.
  Status Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    int64_t parent;
    uint64_t op_id;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t op_id,
             int64_t parent = -1)
      : tracer_(tracer), id_(tracer->Begin(name, op_id, parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// One streamshare_serve child process. Stdout is a pipe the launcher
/// reads the `listening port=N` line from; stderr goes to a file.
class DaemonProcess {
 public:
  DaemonProcess() = default;
  ~DaemonProcess();
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  /// Spawns `bin args...` and waits until it prints its listening port.
  Status Start(const std::string& bin, const std::vector<std::string>& args,
               const std::string& stderr_path, double timeout_s = 120.0);
  int port() const { return port_; }
  pid_t pid() const { return pid_; }
  bool running() const { return pid_ > 0; }

  /// SIGKILL and reap.
  void Kill9();
  /// SIGTERM (restartable drain) and reap; SIGKILL after `timeout_s`.
  Status Terminate(double timeout_s = 60.0);

  uint64_t PeakRssKb() const;
  /// CPU time of every thread of the daemon, in seconds.
  double CpuSeconds() const;

 private:
  void Reap();
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = 0;
};

/// Per-query delivery observation: count, bytes and order-insensitive
/// content hash, computed as engine::SinkOp does.
struct Observation {
  uint64_t items = 0;
  uint64_t bytes = 0;
  uint64_t hash = 0;
  bool operator==(const Observation& other) const {
    return items == other.items && bytes == other.bytes &&
           hash == other.hash;
  }
};

std::string ToString(const Observation& observation);

Observation ObserveSink(const engine::SinkOp* sink);

/// Data-shipping evaluation of the same queries over the same items:
/// every query ships the raw stream to its super-peer and evaluates
/// there, so no stream is shared. Feeds regenerate the scenario's
/// streams from their seeds exactly as the daemon's FeedRange does.
class Reference {
 public:
  static Result<std::unique_ptr<Reference>> Create(
      const workload::ScenarioSpec& scenario);
  /// Registers a query; returns the reference's query id.
  Result<int> Subscribe(const std::string& text, network::NodeId vq);
  Status Unsubscribe(int query_id);
  /// Feeds the next `count` items of every stream.
  Status Feed(uint64_t count);
  Status Shutdown() { return system_->Shutdown(); }
  Observation Observe(int query_id) const;
  const sharing::StreamShareSystem& system() const { return *system_; }

 private:
  std::unique_ptr<sharing::StreamShareSystem> system_;
  std::vector<std::string> stream_names_;
  std::vector<workload::PhotonGenerator> generators_;
};

/// Generates the next `count` items of every stream into a Feed map.
std::map<std::string, std::vector<engine::ItemPtr>> GenerateItems(
    const workload::ScenarioSpec& scenario,
    std::vector<workload::PhotonGenerator>* generators, uint64_t count);

/// The scenario's generators, freshly seeded.
std::vector<workload::PhotonGenerator> MakeGenerators(
    const workload::ScenarioSpec& scenario);

/// The paper's 4×4 grid with its 100 template queries (seed 13), whose
/// photon streams are seeded from the benchmark seed instead: the
/// topology, statistics and queries — hence every plan — are the same
/// for every seed, and only the item values change.
workload::ScenarioSpec BenchScenario(uint64_t seed);

/// The seed streamshare_serve --seed must get to generate the streams
/// of BenchScenario(seed).
uint64_t StreamSeed(uint64_t seed);

/// True when the query aggregates over a time window.
bool IsWindowed(const std::string& query_text);

/// True when the registration's plan recombines a finer aggregate stream
/// into the query's window (an agg-combine operator, the paper's Fig. 5).
bool RecombinesWindows(const sharing::RegistrationResult& result);

/// RecombinesWindows for each of `queries` registered in order at offset
/// 0 under stream sharing, as a daemon that receives them in that order
/// plans them.
Result<std::vector<bool>> RecombinedPlans(
    const workload::ScenarioSpec& scenario,
    const std::vector<workload::QuerySpec>& queries);

/// Summed link bytes of a deployment's measured traffic.
uint64_t LinkBytes(const sharing::StreamShareSystem& system);

/// Reads engine.link.*.bytes from a daemon --metrics CSV and sums them.
Result<double> LinkBytesFromMetricsCsv(const std::string& path);

}  // namespace streamshare::perfbench

#endif  // STREAMSHARE_PERFBENCH_COMMON_H_
