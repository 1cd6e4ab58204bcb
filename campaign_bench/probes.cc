#include "probes.h"

#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <limits>
#include <new>
#include <sstream>
#include <stdexcept>
#include <system_error>

namespace campaign_bench {

int64_t MonoNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// ---- SharedProbe ------------------------------------------------------------

SharedProbe::SharedProbe() {
  void* memory = ::mmap(nullptr, sizeof(ProbeState), PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (memory == MAP_FAILED) {
    throw std::system_error(errno, std::generic_category(), "mmap");
  }
  // The mapping is zero-filled; only the atomics need constructing.
  state_ = static_cast<ProbeState*>(memory);
  new (&state_->first_recover_ns)
      std::atomic<int64_t>(std::numeric_limits<int64_t>::max());
  new (&state_->phase) std::atomic<int>(static_cast<int>(Phase::kOther));
  new (&state_->recover_count) std::atomic<uint32_t>(0);
  new (&state_->reexec_count) std::atomic<uint32_t>(0);
}

SharedProbe::~SharedProbe() { ::munmap(state_, sizeof(ProbeState)); }

std::vector<RecoverRecord> SharedProbe::Recovers(uint64_t* dropped) const {
  const uint32_t count = state_->recover_count.load();
  const uint32_t kept = std::min(count, ProbeState::kMaxRecords);
  if (dropped != nullptr) {
    *dropped = count - kept;
  }
  return {state_->recovers, state_->recovers + kept};
}

std::vector<ReexecRecord> SharedProbe::Reexecs(uint64_t* dropped) const {
  const uint32_t count = state_->reexec_count.load();
  const uint32_t kept = std::min(count, ProbeState::kMaxRecords);
  if (dropped != nullptr) {
    *dropped = count - kept;
  }
  return {state_->reexecs, state_->reexecs + kept};
}

// ---- ProbeTarget ------------------------------------------------------------

bool ProbeTarget::Timing() const {
  return traced_ &&
         state_->phase.load(std::memory_order_relaxed) ==
             static_cast<int>(Phase::kInject);
}

void ProbeTarget::EndReexec() {
  if (!in_reexec_) {
    return;
  }
  in_reexec_ = false;
  reexec_.end_ns = MonoNs();
  const uint32_t slot = state_->reexec_count.fetch_add(1);
  if (slot < ProbeState::kMaxRecords) {
    state_->reexecs[slot] = reexec_;
  }
}

void ProbeTarget::Setup(mumak::PmPool& pool) {
  if (!Timing()) {
    inner_->Setup(pool);
    return;
  }
  const int64_t start = MonoNs();
  in_reexec_ = true;
  reexec_ = ReexecRecord{};
  reexec_.start_ns = start;
  reexec_.pid = ::getpid();
  try {
    inner_->Setup(pool);
  } catch (...) {
    reexec_.busy_ns += MonoNs() - start;
    EndReexec();
    throw;
  }
  reexec_.busy_ns += MonoNs() - start;
}

void ProbeTarget::Execute(mumak::PmPool& pool, const mumak::Op& op) {
  if (!in_reexec_) {
    inner_->Execute(pool, op);
    return;
  }
  const int64_t start = MonoNs();
  ++reexec_.ops;
  try {
    inner_->Execute(pool, op);
  } catch (...) {
    // A CrashSignal at the injected failure point ends the re-execution.
    reexec_.busy_ns += MonoNs() - start;
    EndReexec();
    throw;
  }
  reexec_.busy_ns += MonoNs() - start;
}

void ProbeTarget::Finish(mumak::PmPool& pool) {
  if (!in_reexec_) {
    inner_->Finish(pool);
    return;
  }
  const int64_t start = MonoNs();
  try {
    inner_->Finish(pool);
  } catch (...) {
    reexec_.busy_ns += MonoNs() - start;
    EndReexec();
    throw;
  }
  reexec_.busy_ns += MonoNs() - start;
  EndReexec();
}

void ProbeTarget::Recover(mumak::PmPool& pool) {
  const int64_t start = MonoNs();
  int64_t first = state_->first_recover_ns.load(std::memory_order_relaxed);
  while (start < first &&
         !state_->first_recover_ns.compare_exchange_weak(first, start)) {
  }
  if (!traced_) {
    inner_->Recover(pool);
    return;
  }
  auto record = [&](bool failed) {
    const uint32_t slot = state_->recover_count.fetch_add(1);
    if (slot < ProbeState::kMaxRecords) {
      state_->recovers[slot] = {start, MonoNs(), ::getpid(), failed};
    }
  };
  try {
    inner_->Recover(pool);
  } catch (...) {
    record(true);
    throw;
  }
  record(false);
}

mumak::TargetFactory WrapFactory(mumak::TargetFactory inner,
                                 ProbeState* state, bool traced) {
  return [inner = std::move(inner), state, traced]() -> mumak::TargetPtr {
    return std::make_unique<ProbeTarget>(inner(), state, traced);
  };
}

// ---- TimedTraceSink ---------------------------------------------------------

double MeasureClockOverheadNs() {
  constexpr int kSamples = 20000;
  int64_t total = 0;
  for (int i = 0; i < kSamples; ++i) {
    const int64_t a = MonoNs();
    total += MonoNs() - a;
  }
  return static_cast<double>(total) / kSamples;
}

TimedTraceSink::TimedTraceSink(const std::string& path,
                               const mumak::TraceSinkOptions& options,
                               double clock_overhead_ns)
    : sink_(path, options),
      path_(path),
      clock_overhead_ns_(clock_overhead_ns) {}

void TimedTraceSink::OnEvent(const mumak::PmEvent& event) {
  const int64_t start = MonoNs();
  sink_.OnEvent(event);
  busy_ns_ += MonoNs() - start;
  ++events_;
}

void TimedTraceSink::Close() {
  const int64_t start = MonoNs();
  sink_.Close();
  close_ns_ = MonoNs() - start;
  std::error_code error;
  const auto size = std::filesystem::file_size(path_, error);
  file_bytes_ = error ? 0 : static_cast<uint64_t>(size);
}

double TimedTraceSink::busy_s() const {
  const double corrected =
      static_cast<double>(busy_ns_) -
      clock_overhead_ns_ * static_cast<double>(events_);
  return std::max(0.0, corrected) * 1e-9;
}

// ---- SpanLog ----------------------------------------------------------------

pid_t CurrentTid() { return static_cast<pid_t>(::syscall(SYS_gettid)); }

int SpanLog::Begin(const std::string& name, int parent) {
  Span span;
  span.parent = parent;
  span.name = name;
  span.pid = ::getpid();
  span.tid = CurrentTid();
  span.start_ns = MonoNs();
  return Add(std::move(span));
}

void SpanLog::End(int id) {
  const int64_t now = MonoNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(id).end_ns = now;
}

int SpanLog::Add(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  span.id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanLog::SetArg(int id, const std::string& key, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(id).args[key] = value;
}

std::vector<Span> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<int, double> SelfTimes(const std::vector<Span>& spans) {
  std::map<int, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::map<int, double> self;
  for (const Span& span : spans) {
    std::vector<std::pair<int64_t, int64_t>> covered = children[span.id];
    std::sort(covered.begin(), covered.end());
    int64_t union_ns = 0;
    int64_t cursor = span.start_ns;
    for (auto [start, end] : covered) {
      start = std::max(start, cursor);
      end = std::min(end, span.end_ns);
      if (end > start) {
        union_ns += end - start;
        cursor = end;
      }
    }
    self[span.id] =
        static_cast<double>(span.end_ns - span.start_ns - union_ns) * 1e-9;
  }
  return self;
}

// ---- Usage ------------------------------------------------------------------

Usage ReadUsage(int who) {
  rusage usage{};
  ::getrusage(who, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  Usage out;
  out.user_s = seconds(usage.ru_utime);
  out.sys_s = seconds(usage.ru_stime);
  out.minor_faults = static_cast<uint64_t>(usage.ru_minflt);
  out.max_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return out;
}

Usage ReadThreadUsage(pid_t tid) {
  Usage out;
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) {
    return out;
  }
  // Fields after the parenthesised command name; minflt is field 10,
  // utime 14 and stime 15 (1-based, see proc(5)).
  const size_t close = line.rfind(')');
  if (close == std::string::npos) {
    return out;
  }
  std::istringstream fields(line.substr(close + 2));
  std::vector<std::string> values;
  std::string value;
  while (fields >> value) {
    values.push_back(value);
  }
  if (values.size() < 13) {
    return out;
  }
  const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  out.minor_faults = std::stoull(values[7]);
  out.user_s = static_cast<double>(std::stoull(values[11])) / tick;
  out.sys_s = static_cast<double>(std::stoull(values[12])) / tick;
  return out;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

}  // namespace campaign_bench
