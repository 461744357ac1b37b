#include "bench_common.h"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "wxquery/analyzer.h"

extern char** environ;

namespace streamshare::perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  struct timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

uint64_t PeakRssKb(pid_t pid) {
  std::string path = pid == 0 ? std::string("/proc/self/status")
                              : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

// --- Samples ---------------------------------------------------------------

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Samples::Sum() const {
  double sum = 0.0;
  for (double value : values_) sum += value;
  return sum;
}

Samples Samples::BlockQuantiles(size_t block, double q) const {
  Samples quantiles;
  if (values_.size() < block) {  // a short run: one block of what there is
    quantiles.Add(Quantile(q));
    return quantiles;
  }
  for (size_t start = 0; block > 0 && start + block <= values_.size();
       start += block) {
    Samples one;
    one.values_.assign(values_.begin() + static_cast<long>(start),
                       values_.begin() + static_cast<long>(start + block));
    quantiles.Add(one.Quantile(q));
  }
  return quantiles;
}

// --- Report ----------------------------------------------------------------

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0.0;
  }
  for (auto& metric : metrics_) {
    if (metric.first == name) {
      metric.second = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

bool Report::Has(const std::string& name) const {
  for (const auto& metric : metrics_) {
    if (metric.first == name) return true;
  }
  return false;
}

void Report::Fail(const std::string& message) {
  correct_ = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", message.c_str());
}

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].second.first);
    if (i != 0) out += ", ";
    out += "\"" + metrics_[i].first + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics_[i].second.second + "\"}";
  }
  out += "}}";
  return out;
}

// --- Tracer ----------------------------------------------------------------

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

int64_t Tracer::Begin(const char* name, uint64_t op_id, int64_t parent) {
  if (!enabled_) return -1;
  spans_.push_back({name, NowNs(), 0, parent, op_id});
  return static_cast<int64_t>(spans_.size() - 1);
}

void Tracer::End(int64_t span) {
  if (span < 0) return;
  spans_[static_cast<size_t>(span)].end_ns = NowNs();
}

double Tracer::TotalUs(const std::string& name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.end_ns != 0 && name == span.name) {
      total += static_cast<double>(span.end_ns - span.start_ns) * 1e-3;
    }
  }
  return total;
}

size_t Tracer::Count(const std::string& name) const {
  size_t count = 0;
  for (const Span& span : spans_) {
    if (span.end_ns != 0 && name == span.name) ++count;
  }
  return count;
}

double Tracer::CostPerSpanUs() {
  constexpr int kSpans = 200000;
  Tracer probe(true);
  probe.spans_.reserve(kSpans);
  double start = Now();
  for (int i = 0; i < kSpans; ++i) {
    probe.End(probe.Begin("probe", static_cast<uint64_t>(i)));
  }
  return (Now() - start) * 1e6 / kSpans;
}

Status Tracer::Write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return Status::Internal("cannot write " + path);
  for (const Span& span : spans_) {
    std::fprintf(out,
                 "{\"name\": \"%s\", \"start_ns\": %llu, \"end_ns\": %llu, "
                 "\"parent\": %lld, \"op\": %llu}\n",
                 span.name, static_cast<unsigned long long>(span.start_ns),
                 static_cast<unsigned long long>(span.end_ns),
                 static_cast<long long>(span.parent),
                 static_cast<unsigned long long>(span.op_id));
  }
  return std::fclose(out) == 0 ? Status::Ok()
                               : Status::Internal("cannot write " + path);
}

// --- DaemonProcess ---------------------------------------------------------

DaemonProcess::~DaemonProcess() {
  if (running()) Kill9();
}

Status DaemonProcess::Start(const std::string& bin,
                            const std::vector<std::string>& args,
                            const std::string& stderr_path,
                            double timeout_s) {
  if (running()) return Status::Internal("daemon already running");
  int fds[2];
  if (::pipe(fds) != 0) return Status::Internal("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO,
                                   stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(bin.c_str()));
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  pid_t pid = -1;
  int spawned = posix_spawn(&pid, bin.c_str(), &actions, nullptr,
                            argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (spawned != 0) {
    ::close(fds[0]);
    return Status::Internal("cannot spawn " + bin + ": " +
                            std::strerror(spawned));
  }
  pid_ = pid;
  stdout_fd_ = fds[0];

  // The daemon prints `listening port=N ...` once it accepts connections.
  std::string buffer;
  double deadline = Now() + timeout_s;
  while (true) {
    size_t newline = buffer.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (line.rfind("listening port=", 0) == 0) {
        port_ = std::atoi(line.c_str() + std::strlen("listening port="));
        return Status::Ok();
      }
      continue;
    }
    double left = deadline - Now();
    if (left <= 0) {
      Kill9();
      return Status::DeadlineExceeded("daemon did not start listening");
    }
    struct pollfd pfd = {stdout_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, static_cast<int>(left * 1000) + 1);
    if (ready <= 0) continue;
    char chunk[512];
    ssize_t got = ::read(stdout_fd_, chunk, sizeof(chunk));
    if (got <= 0) {
      Kill9();
      return Status::Internal("daemon exited before listening (see " +
                              stderr_path + ")");
    }
    buffer.append(chunk, static_cast<size_t>(got));
  }
}

void DaemonProcess::Reap() {
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  stdout_fd_ = -1;
  pid_ = -1;
  port_ = 0;
}

void DaemonProcess::Kill9() {
  if (!running()) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  Reap();
}

Status DaemonProcess::Terminate(double timeout_s) {
  if (!running()) return Status::Ok();
  ::kill(pid_, SIGTERM);
  double deadline = Now() + timeout_s;
  while (true) {
    int status = 0;
    pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_) {
      Reap();
      if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return Status::Ok();
      return Status::Internal("daemon drain exited with status " +
                              std::to_string(status));
    }
    if (Now() > deadline) {
      Kill9();
      return Status::DeadlineExceeded("daemon did not drain");
    }
    ::poll(nullptr, 0, 1);
  }
}

uint64_t DaemonProcess::PeakRssKb() const {
  return running() ? perfbench::PeakRssKb(pid_) : 0;
}

double DaemonProcess::CpuSeconds() const {
  if (!running()) return 0.0;
  std::string tasks = "/proc/" + std::to_string(pid_) + "/task";
  DIR* dir = ::opendir(tasks.c_str());
  if (dir == nullptr) return 0.0;
  double total_ns = 0.0;
  while (struct dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    std::ifstream in(tasks + "/" + entry->d_name + "/schedstat");
    double on_cpu_ns = 0.0;
    if (in >> on_cpu_ns) total_ns += on_cpu_ns;
  }
  ::closedir(dir);
  return total_ns * 1e-9;
}

// --- Observations and the reference ----------------------------------------

std::string ToString(const Observation& observation) {
  return "items=" + std::to_string(observation.items) +
         " bytes=" + std::to_string(observation.bytes) +
         " hash=" + std::to_string(observation.hash);
}

Observation ObserveSink(const engine::SinkOp* sink) {
  Observation observation;
  if (sink == nullptr) return observation;
  observation.items = sink->item_count();
  observation.bytes = sink->total_bytes();
  observation.hash = sink->content_hash();
  return observation;
}

Result<std::unique_ptr<Reference>> Reference::Create(
    const workload::ScenarioSpec& scenario) {
  auto reference = std::unique_ptr<Reference>(new Reference());
  sharing::SystemConfig config;
  config.measure_latency = false;  // stamping never changes results
  SS_ASSIGN_OR_RETURN(reference->system_,
                      workload::BuildSystem(scenario, config));
  for (const workload::StreamSpec& stream : scenario.streams) {
    reference->stream_names_.push_back(stream.name);
  }
  reference->generators_ = MakeGenerators(scenario);
  return reference;
}

Result<int> Reference::Subscribe(const std::string& text,
                                 network::NodeId vq) {
  SS_ASSIGN_OR_RETURN(
      sharing::RegistrationResult result,
      system_->RegisterQuery(text, vq, sharing::Strategy::kDataShipping));
  if (!result.accepted || result.sink == nullptr) {
    return Status::Internal("reference rejected a query: " +
                            result.reject_reason);
  }
  result.sink->EnableContentHash();
  return result.query_id;
}

Status Reference::Unsubscribe(int query_id) {
  return system_->Unsubscribe(query_id);
}

Status Reference::Feed(uint64_t count) {
  std::map<std::string, std::vector<engine::ItemPtr>> items;
  for (size_t s = 0; s < generators_.size(); ++s) {
    items[stream_names_[s]] = generators_[s].Generate(count);
  }
  return system_->Feed(items);
}

Observation Reference::Observe(int query_id) const {
  return ObserveSink(system_->registrations()[query_id].sink);
}

std::map<std::string, std::vector<engine::ItemPtr>> GenerateItems(
    const workload::ScenarioSpec& scenario,
    std::vector<workload::PhotonGenerator>* generators, uint64_t count) {
  std::map<std::string, std::vector<engine::ItemPtr>> items;
  for (size_t s = 0; s < scenario.streams.size(); ++s) {
    items[scenario.streams[s].name] = (*generators)[s].Generate(count);
  }
  return items;
}

std::vector<workload::PhotonGenerator> MakeGenerators(
    const workload::ScenarioSpec& scenario) {
  std::vector<workload::PhotonGenerator> generators;
  for (const workload::StreamSpec& stream : scenario.streams) {
    generators.emplace_back(stream.gen);
  }
  return generators;
}

uint64_t StreamSeed(uint64_t seed) { return 1000 + seed; }

workload::ScenarioSpec BenchScenario(uint64_t seed) {
  workload::ScenarioSpec scenario = workload::GridScenario(13, 100);
  scenario.streams =
      workload::GridScenario(StreamSeed(seed), /*query_count=*/0).streams;
  return scenario;
}

bool IsWindowed(const std::string& query_text) {
  Result<wxquery::AnalyzedQuery> analyzed =
      wxquery::ParseAndAnalyze(query_text);
  if (!analyzed.ok()) return false;
  for (const wxquery::StreamBinding& binding : analyzed->bindings) {
    if (binding.window.has_value()) return true;
  }
  return false;
}

bool RecombinesWindows(const sharing::RegistrationResult& result) {
  for (const sharing::InputPlan& input : result.plan.inputs) {
    for (const sharing::EngineOpSpec& op : input.ops) {
      if (op.kind == sharing::EngineOpSpec::Kind::kAggCombine) return true;
    }
  }
  return false;
}

Result<std::vector<bool>> RecombinedPlans(
    const workload::ScenarioSpec& scenario,
    const std::vector<workload::QuerySpec>& queries) {
  SS_ASSIGN_OR_RETURN(std::unique_ptr<sharing::StreamShareSystem> system,
                      workload::BuildSystem(scenario, sharing::SystemConfig()));
  std::vector<bool> recombined;
  for (const workload::QuerySpec& query : queries) {
    SS_ASSIGN_OR_RETURN(
        sharing::RegistrationResult result,
        system->RegisterQuery(query.text, query.target,
                              sharing::Strategy::kStreamSharing));
    recombined.push_back(RecombinesWindows(result));
  }
  return recombined;
}

uint64_t LinkBytes(const sharing::StreamShareSystem& system) {
  return system.metrics().TotalBytes();
}

Result<double> LinkBytesFromMetricsCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("no metrics file " + path);
  std::string line;
  double total = 0.0;
  int links = 0;
  while (std::getline(in, line)) {
    if (line.rfind("engine.link.", 0) != 0) continue;
    size_t comma = line.find(',');
    if (comma == std::string::npos) continue;
    std::string name = line.substr(0, comma);
    if (name.size() < 6 || name.compare(name.size() - 6, 6, ".bytes") != 0) {
      continue;
    }
    size_t type_end = line.find(',', comma + 1);
    if (type_end == std::string::npos) continue;
    total += std::strtod(line.c_str() + type_end + 1, nullptr);
    ++links;
  }
  if (links == 0) return Status::NotFound("no link gauges in " + path);
  return total;
}

}  // namespace streamshare::perfbench
