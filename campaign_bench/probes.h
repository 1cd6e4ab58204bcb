// Outside-in probes: everything here observes the program through its
// public interfaces (the Target and EventSink seams, getrusage), so the
// numbers do not depend on the program's own metrics or span tracer.

#ifndef CAMPAIGN_BENCH_PROBES_H_
#define CAMPAIGN_BENCH_PROBES_H_

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/fault_injection.h"
#include "src/instrument/trace.h"

namespace campaign_bench {

// CLOCK_MONOTONIC in nanoseconds: one system-wide clock, so stamps taken in
// forked fleet workers compare directly with the parent's.
int64_t MonoNs();

// Which pipeline step the traced campaign is in. Re-executions inside the
// decorator count as injection work only during kInject.
enum class Phase : int { kOther = 0, kInject = 1 };

struct RecoverRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  pid_t pid = 0;
  bool failed = false;
};

struct ReexecRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t busy_ns = 0;  // time inside Setup/Execute/Finish
  uint64_t ops = 0;     // Execute calls
  pid_t pid = 0;
};

// Probe state shared by the campaign process and the fleet workers it
// forks; it lives in a MAP_SHARED anonymous mapping created before the
// campaign starts. Records are claimed with fetch_add and read only after
// every worker has been reaped and every thread joined.
struct ProbeState {
  static constexpr uint32_t kMaxRecords = 1u << 14;

  std::atomic<int64_t> first_recover_ns;
  std::atomic<int> phase;
  std::atomic<uint32_t> recover_count;
  std::atomic<uint32_t> reexec_count;
  RecoverRecord recovers[kMaxRecords];
  ReexecRecord reexecs[kMaxRecords];
};

static_assert(std::atomic<int64_t>::is_always_lock_free,
              "probe stamps must be address-free across processes");

class SharedProbe {
 public:
  SharedProbe();
  ~SharedProbe();
  SharedProbe(const SharedProbe&) = delete;
  SharedProbe& operator=(const SharedProbe&) = delete;

  ProbeState* state() const { return state_; }

  // Recorded entries, clamped to the capacity; `dropped` counts the rest.
  std::vector<RecoverRecord> Recovers(uint64_t* dropped = nullptr) const;
  std::vector<ReexecRecord> Reexecs(uint64_t* dropped = nullptr) const;

 private:
  ProbeState* state_ = nullptr;
};

// Target decorator returned by the benchmark's factory. Untraced, it only
// forwards and stamps the earliest Recover of the campaign (the end of
// setup); traced, it also records every Recover call and every injection
// re-execution.
class ProbeTarget : public mumak::Target {
 public:
  ProbeTarget(mumak::TargetPtr inner, ProbeState* state, bool traced)
      : inner_(std::move(inner)), state_(state), traced_(traced) {}

  std::string_view name() const override { return inner_->name(); }
  uint64_t DefaultPoolSize() const override {
    return inner_->DefaultPoolSize();
  }
  void Setup(mumak::PmPool& pool) override;
  void Execute(mumak::PmPool& pool, const mumak::Op& op) override;
  void Finish(mumak::PmPool& pool) override;
  void Recover(mumak::PmPool& pool) override;
  uint64_t CodeSizeStatements() const override {
    return inner_->CodeSizeStatements();
  }

 private:
  bool Timing() const;
  void EndReexec();

  mumak::TargetPtr inner_;
  ProbeState* state_;
  bool traced_;
  bool in_reexec_ = false;
  ReexecRecord reexec_;
};

mumak::TargetFactory WrapFactory(mumak::TargetFactory inner,
                                 ProbeState* state, bool traced);

// Mean cost of an empty MonoNs() interval, measured on this host.
double MeasureClockOverheadNs();

// TraceFileSink wrapper that accounts the time spent inside the sink. The
// per-event cost is close to a clock read, so `clock_overhead_ns` (see
// MeasureClockOverheadNs) is subtracted from every timed call.
class TimedTraceSink : public mumak::EventSink {
 public:
  TimedTraceSink(const std::string& path,
                 const mumak::TraceSinkOptions& options,
                 double clock_overhead_ns);

  void OnEvent(const mumak::PmEvent& event) override;
  void Close();

  uint64_t events() const { return events_; }
  double busy_s() const;
  double close_s() const { return static_cast<double>(close_ns_) * 1e-9; }
  uint64_t file_bytes() const { return file_bytes_; }

 private:
  mumak::TraceFileSink sink_;
  std::string path_;
  double clock_overhead_ns_ = 0;
  int64_t busy_ns_ = 0;
  int64_t close_ns_ = 0;
  uint64_t events_ = 0;
  uint64_t file_bytes_ = 0;
};

struct Span {
  int id = 0;
  int parent = -1;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  pid_t pid = 0;
  pid_t tid = 0;
  // Aggregate spans stand for many short calls on one thread (their total
  // time, laid out from the start of the parent); they are never nested.
  bool aggregate = false;
  std::map<std::string, double> args;
};

// In-memory span log, written out by the caller when the run ends.
class SpanLog {
 public:
  int Begin(const std::string& name, int parent);
  void End(int id);
  int Add(Span span);
  void SetArg(int id, const std::string& key, double value);
  std::vector<Span> Snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

class ScopedSpanProbe {
 public:
  ScopedSpanProbe(SpanLog* log, const std::string& name, int parent)
      : log_(log), id_(log->Begin(name, parent)) {}
  ~ScopedSpanProbe() { log_->End(id_); }
  ScopedSpanProbe(const ScopedSpanProbe&) = delete;
  ScopedSpanProbe& operator=(const ScopedSpanProbe&) = delete;

  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

// Self time: duration minus the part of the span its children cover
// (children on other threads or processes count through the union of their
// intervals, clipped to the parent).
std::map<int, double> SelfTimes(const std::vector<Span>& spans);

struct Usage {
  double user_s = 0;
  double sys_s = 0;
  uint64_t minor_faults = 0;
  double max_rss_mb = 0;

  double cpu_s() const { return user_s + sys_s; }
};

Usage ReadUsage(int who);  // RUSAGE_SELF, RUSAGE_CHILDREN or RUSAGE_THREAD
// Usage of one thread of this process, read from /proc while it runs.
Usage ReadThreadUsage(pid_t tid);

pid_t CurrentTid();

// Median and nearest-rank percentile of `values` (0 when empty).
double Percentile(std::vector<double> values, double p);

}  // namespace campaign_bench

#endif  // CAMPAIGN_BENCH_PROBES_H_
