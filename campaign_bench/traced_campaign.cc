#include "traced_campaign.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include "src/fleet/scheduler.h"
#include "src/instrument/shadow_call_stack.h"
#include "src/pmem/image_digest.h"
#include "src/pmem/replay_cursor.h"

namespace campaign_bench {
namespace {

using mumak::PmEvent;
using mumak::PmPool;

// Same sampling as the footprint sampler Analyze() attaches to its vanilla
// run, so the traced vanilla step does the same work.
class FootprintProbe : public mumak::EventSink {
 public:
  explicit FootprintProbe(const PmPool* pool) : pool_(pool) {}

  void OnEvent(const PmEvent& event) override {
    if ((event.seq & 0x3ff) == 0) {
      peak_ = std::max(peak_, pool_->model().VolatileFootprintBytes());
    }
  }

 private:
  const PmPool* pool_;
  size_t peak_ = 0;
};

// Captures shadow-stack backtraces for the wanted instruction counters, as
// Analyze()'s backtrace resolver does.
class BacktraceSink : public mumak::EventSink {
 public:
  explicit BacktraceSink(std::set<uint64_t> wanted)
      : wanted_(std::move(wanted)) {}

  void OnEvent(const PmEvent& event) override {
    if (wanted_.find(event.seq) == wanted_.end()) {
      return;
    }
    std::string stack = mumak::ShadowCallStack::Current().Describe();
    const std::string site =
        mumak::FrameRegistry::Global().Describe(event.site);
    backtraces_.emplace(event.seq,
                        stack.empty() ? site : site + " <- " + stack);
  }

  const std::map<uint64_t, std::string>& backtraces() const {
    return backtraces_;
  }

 private:
  std::set<uint64_t> wanted_;
  std::map<uint64_t, std::string> backtraces_;
};

void ResolveBacktraces(const mumak::TargetFactory& factory,
                       const mumak::WorkloadSpec& spec, mumak::Report* report,
                       std::optional<PmPool>* pool_out) {
  std::set<uint64_t> wanted;
  for (const mumak::Finding& finding : report->findings()) {
    if (finding.source == mumak::FindingSource::kTraceAnalysis) {
      wanted.insert(finding.seq);
    }
  }
  if (wanted.empty()) {
    return;
  }
  mumak::TargetPtr target = factory();
  PmPool& pool = pool_out->emplace(target->DefaultPoolSize());
  BacktraceSink sink(std::move(wanted));
  {
    mumak::ScopedSink attach(pool.hub(), &sink);
    mumak::FaultInjectionEngine::ExecuteWorkload(*target, pool, spec);
  }
  mumak::Report resolved;
  for (mumak::Finding finding : report->findings()) {
    const auto it = sink.backtraces().find(finding.seq);
    if (finding.source == mumak::FindingSource::kTraceAnalysis &&
        it != sink.backtraces().end()) {
      finding.location = it->second;
    }
    resolved.Add(std::move(finding));
  }
  *report = std::move(resolved);
}

// The probed unit costs repeat this often; the median is reported.
constexpr int kUnitRepeats = 5;

template <typename Fn>
double MedianMicros(SpanLog* log, const std::string& name, Fn&& fn) {
  std::vector<double> samples;
  for (int i = 0; i < kUnitRepeats; ++i) {
    ScopedSpanProbe span(log, name, -1);
    const int64_t start = MonoNs();
    fn();
    samples.push_back(static_cast<double>(MonoNs() - start) * 1e-3);
  }
  return Percentile(std::move(samples), 0.5);
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

}  // namespace

TracedOutcome RunTracedCampaign(const BenchWorkload& workload, uint64_t seed,
                                const std::string& spool_path) {
  const double clock_overhead_ns = MeasureClockOverheadNs();
  SharedProbe probe;
  ProbeState* state = probe.state();
  const mumak::TargetFactory plain = MakeTargetFactory();
  const mumak::TargetFactory factory = WrapFactory(plain, state, true);
  const mumak::WorkloadSpec spec = MakeSpec(workload, seed);
  const mumak::MumakOptions options = MakeCampaignOptions(workload);

  TracedOutcome out;
  SpanLog log;
  std::map<std::string, double>& layers = out.layers;
  const int root = log.Begin("campaign", -1);

  // 1. Vanilla baseline.
  {
    ScopedSpanProbe span(&log, "targets.vanilla", root);
    mumak::TargetPtr target = factory();
    PmPool pool(target->DefaultPoolSize());
    FootprintProbe sampler(&pool);
    mumak::ScopedSink attach(pool.hub(), &sampler);
    mumak::FaultInjectionEngine::ExecuteWorkload(*target, pool, spec);
  }

  // 2. Profiling through the wrapped spool sink, with the engine, analyzer
  // and sink configured exactly as Analyze() configures them.
  mumak::FaultInjectionOptions fi_options;
  fi_options.granularity = options.granularity;
  fi_options.time_budget_s = options.time_budget_s;
  fi_options.workers = options.injection_workers;
  fi_options.strategy = options.fleet.workers > 1
                            ? mumak::InjectionStrategy::kReplay
                            : options.injection_strategy;
  fi_options.image_dedup = options.image_dedup;
  fi_options.verify_dedup = options.verify_dedup;
  fi_options.seek_checkpoints = options.seek_checkpoints;
  fi_options.sandbox = options.sandbox;
  mumak::FaultInjectionEngine engine(factory, spec, fi_options);
  mumak::TraceAnalysisOptions ta_options;
  ta_options.report_warnings = options.report_warnings;
  ta_options.report_dirty_overwrites = options.report_dirty_overwrites;
  ta_options.eadr_mode = options.eadr_mode;
  ta_options.detectors = options.detectors;
  ta_options.jobs = options.analysis_jobs;
  mumak::TraceAnalyzer analyzer(std::move(ta_options));
  mumak::TraceSinkOptions sink_options;
  sink_options.format = options.trace_format == 3 ? 3 : 0;
  sink_options.block_events = options.trace_block_events;
  TimedTraceSink sink(spool_path, sink_options, clock_overhead_ns);

  const int profile_id = log.Begin("core.profile", root);
  mumak::FailurePointTree tree = engine.Profile(&sink);
  log.End(profile_id);
  {
    Span spool;
    spool.parent = profile_id;
    spool.name = "instrument.spool";
    spool.aggregate = true;
    spool.start_ns = log.Snapshot()[profile_id].start_ns;
    spool.end_ns = spool.start_ns + static_cast<int64_t>(sink.busy_s() * 1e9);
    spool.args["events"] = static_cast<double>(sink.events());
    log.Add(std::move(spool));
  }
  {
    ScopedSpanProbe span(&log, "instrument.spool_close", root);
    sink.Close();
  }
  // Injection marks every failure point visited, and the replay_advance
  // probe after the campaign needs the schedule injection starts from, so
  // the benchmark keeps an unvisited copy of the tree (bench overhead).
  std::optional<mumak::FailurePointTree> unvisited_tree;
  if (engine.replay_ready()) {
    ScopedSpanProbe span(&log, "bench.tree_copy", root);
    unvisited_tree.emplace(tree);
  }

  // 3. Trace analysis on a thread, overlapping injection.
  mumak::Report trace_report;
  mumak::TraceStats trace_stats;
  std::mutex analysis_mutex;
  pid_t analysis_tid = 0;          // guarded by analysis_mutex
  bool analysis_done = false;      // guarded by analysis_mutex
  Usage analysis_usage;            // guarded by analysis_mutex
  std::exception_ptr analysis_error;
  std::thread analysis_thread([&] {
    {
      std::lock_guard<std::mutex> lock(analysis_mutex);
      analysis_tid = CurrentTid();
    }
    {
      ScopedSpanProbe span(&log, "analysis", root);
      try {
        trace_report = analyzer.AnalyzeFile(spool_path, &trace_stats);
      } catch (...) {
        analysis_error = std::current_exception();
      }
    }
    std::lock_guard<std::mutex> lock(analysis_mutex);
    analysis_usage = ReadUsage(RUSAGE_THREAD);
    analysis_done = true;
  });

  const bool fleet = options.fleet.workers > 1 && engine.replay_ready();
  const int inject_id = log.Begin("core.inject", root);
  state->phase.store(static_cast<int>(Phase::kInject));
  const Usage self_before = ReadUsage(RUSAGE_SELF);
  const Usage children_before = ReadUsage(RUSAGE_CHILDREN);
  const int64_t inject_start = MonoNs();
  mumak::Report injection_report;
  try {
    injection_report =
        fleet ? mumak::RunFleetCampaign(&engine, &tree, &out.stats,
                                        options.fleet)
              : engine.InjectAll(&tree, &out.stats);
  } catch (...) {
    analysis_thread.join();
    std::remove(spool_path.c_str());
    throw;
  }
  const int64_t inject_end = MonoNs();
  const Usage self_after = ReadUsage(RUSAGE_SELF);
  const Usage children_after = ReadUsage(RUSAGE_CHILDREN);
  // The analysis thread's share of the window, taken off the inject delta.
  Usage analysis_in_window;
  {
    std::lock_guard<std::mutex> lock(analysis_mutex);
    if (analysis_done) {
      analysis_in_window = analysis_usage;
    } else if (analysis_tid != 0) {
      analysis_in_window = ReadThreadUsage(analysis_tid);
    }
  }
  state->phase.store(static_cast<int>(Phase::kOther));
  log.End(inject_id);
  {
    ScopedSpanProbe span(&log, "analysis.join_wait", root);
    analysis_thread.join();
  }
  std::remove(spool_path.c_str());
  if (analysis_error) {
    std::rethrow_exception(analysis_error);
  }

  // 4. Backtrace re-execution for the trace-analysis findings.
  std::optional<PmPool> resolved_pool;
  {
    ScopedSpanProbe span(&log, "targets.backtrace", root);
    ResolveBacktraces(factory, spec, &trace_report, &resolved_pool);
  }
  const size_t analysis_findings = trace_report.findings().size();
  out.events = trace_stats.events;
  out.report.Merge(injection_report);
  out.report.Merge(trace_report);
  log.End(root);

  // ---- pmem unit costs, outside the campaign ------------------------------
  if (!resolved_pool.has_value()) {
    mumak::TargetPtr target = plain();
    resolved_pool.emplace(target->DefaultPoolSize());
    mumak::FaultInjectionEngine::ExecuteWorkload(*target, *resolved_pool,
                                                 spec);
  }
  std::vector<uint8_t> image;
  layers["pmem.graceful_image_us"] =
      MedianMicros(&log, "pmem.graceful_image",
                   [&] { image = resolved_pool->GracefulImage(); });
  [[maybe_unused]] mumak::ImageDigest digest;
  layers["pmem.digest_us"] = MedianMicros(&log, "pmem.digest", [&] {
    digest = mumak::ComputeContentDigest(image.data(), image.size());
  });
  // The replay path hands each check a copy of the image and rebuilds a
  // pool from it; the copy (fresh pages) is most of that cost.
  layers["pmem.pool_restore_us"] =
      MedianMicros(&log, "pmem.pool_restore", [&] {
        PmPool restored = PmPool::FromImage(std::vector<uint8_t>(image));
        if (restored.size() != image.size()) {
          throw std::runtime_error("restored pool has the wrong size");
        }
      });
  layers["pmem.replay_advance_s"] = 0;
  if (unvisited_tree.has_value()) {
    const std::vector<mumak::ReplayPoint> schedule =
        engine.BuildReplaySchedule(*unvisited_tree);
    ScopedSpanProbe span(&log, "pmem.replay_advance", -1);
    const int64_t start = MonoNs();
    mumak::ReplayCursor cursor(engine.replay_trace(),
                               engine.profiled_pool_size(),
                               /*track_digest=*/true);
    for (const mumak::ReplayPoint& point : schedule) {
      cursor.AdvanceTo(point.seq);
      digest = cursor.Digest();
    }
    layers["pmem.replay_advance_s"] = Seconds(MonoNs() - start);
    log.SetArg(span.id(), "points", static_cast<double>(schedule.size()));
  }

  // ---- decorator records -> spans and layer metrics -----------------------
  uint64_t dropped_recovers = 0;
  uint64_t dropped_reexecs = 0;
  const std::vector<RecoverRecord> recovers = probe.Recovers(&dropped_recovers);
  const std::vector<ReexecRecord> reexecs = probe.Reexecs(&dropped_reexecs);
  if (dropped_recovers != 0 || dropped_reexecs != 0) {
    throw std::runtime_error("probe record capacity exceeded");
  }
  double recover_s = 0;
  uint64_t recover_failed = 0;
  std::vector<double> recover_us;
  std::map<pid_t, uint64_t> recovers_per_pid;
  std::map<pid_t, int64_t> first_recover_per_pid;
  for (const RecoverRecord& record : recovers) {
    Span span;
    span.parent = inject_id;
    span.name = "targets.recover";
    span.start_ns = record.start_ns;
    span.end_ns = record.end_ns;
    span.pid = record.pid;
    span.args["failed"] = record.failed ? 1 : 0;
    log.Add(std::move(span));
    recover_s += Seconds(record.end_ns - record.start_ns);
    recover_failed += record.failed ? 1 : 0;
    recover_us.push_back(static_cast<double>(record.end_ns - record.start_ns) *
                         1e-3);
    ++recovers_per_pid[record.pid];
    auto [it, inserted] =
        first_recover_per_pid.emplace(record.pid, record.start_ns);
    if (!inserted) {
      it->second = std::min(it->second, record.start_ns);
    }
  }
  double reexec_s = 0;
  uint64_t reexec_ops = 0;
  for (const ReexecRecord& record : reexecs) {
    Span span;
    span.parent = inject_id;
    span.name = "targets.reexec";
    span.start_ns = record.start_ns;
    span.end_ns = record.end_ns;
    span.pid = record.pid;
    span.args["ops"] = static_cast<double>(record.ops);
    span.args["busy_s"] = Seconds(record.busy_ns);
    log.Add(std::move(span));
    reexec_s += Seconds(record.busy_ns);
    reexec_ops += record.ops;
  }
  std::vector<double> bootstrap_s;
  if (fleet) {
    for (const auto& [pid, first] : first_recover_per_pid) {
      Span span;
      span.parent = inject_id;
      span.name = "fleet.bootstrap";
      span.start_ns = inject_start;
      span.end_ns = first;
      span.pid = pid;
      log.Add(std::move(span));
      bootstrap_s.push_back(Seconds(first - inject_start));
    }
  }

  out.spans = log.Snapshot();
  out.self_s = SelfTimes(out.spans);
  auto duration = [&](const std::string& name) {
    double total = 0;
    for (const Span& span : out.spans) {
      if (span.name == name) {
        total += Seconds(span.end_ns - span.start_ns);
      }
    }
    return total;
  };
  const Span& root_span = out.spans[root];
  out.campaign_s = Seconds(root_span.end_ns - root_span.start_ns);
  const int64_t first_recover = state->first_recover_ns.load();
  out.setup_s = first_recover == std::numeric_limits<int64_t>::max()
                    ? out.campaign_s
                    : Seconds(first_recover - root_span.start_ns);

  const double inject_s = Seconds(inject_end - inject_start);
  const uint32_t workers =
      fleet ? options.fleet.workers : options.injection_workers;
  const double inject_cpu_s =
      (self_after.cpu_s() - self_before.cpu_s()) +
      (children_after.cpu_s() - children_before.cpu_s()) -
      analysis_in_window.cpu_s();
  const double inject_sys_s = (self_after.sys_s - self_before.sys_s) +
                              (children_after.sys_s - children_before.sys_s) -
                              analysis_in_window.sys_s;
  const double inject_minor_faults =
      static_cast<double>(self_after.minor_faults - self_before.minor_faults) +
      static_cast<double>(children_after.minor_faults -
                          children_before.minor_faults) -
      static_cast<double>(analysis_in_window.minor_faults);
  const mumak::FaultInjectionStats& stats = out.stats;

  layers["targets.vanilla_s"] = duration("targets.vanilla");
  layers["targets.reexec_s"] = reexec_s;
  layers["targets.reexec_ops"] = static_cast<double>(reexec_ops);
  layers["targets.recover_s"] = recover_s;
  layers["targets.recover_calls"] = static_cast<double>(recovers.size());
  layers["targets.recover_failed"] = static_cast<double>(recover_failed);
  layers["targets.recover_p50_us"] = Percentile(recover_us, 0.5);
  layers["targets.recover_p95_us"] = Percentile(recover_us, 0.95);
  layers["targets.backtrace_s"] = duration("targets.backtrace");
  layers["instrument.events"] = static_cast<double>(sink.events());
  layers["instrument.spool_s"] = sink.busy_s() + sink.close_s();
  layers["instrument.spool_bytes"] = static_cast<double>(sink.file_bytes());
  layers["instrument.record_bytes_per_event"] =
      sink.events() == 0 ? 0
                         : static_cast<double>(stats.replay_trace_bytes) /
                               static_cast<double>(sink.events());
  layers["core.profile_s"] = duration("core.profile");
  layers["core.inject_s"] = inject_s;
  layers["core.inject_other_s"] = inject_s - reexec_s - recover_s;
  layers["core.inject_cpu_s"] = inject_cpu_s;
  layers["core.inject_sys_s"] = inject_sys_s;
  layers["core.inject_minor_faults"] = inject_minor_faults;
  layers["core.parallel_efficiency"] =
      inject_s > 0 ? inject_cpu_s / (inject_s * workers) : 0;
  layers["core.failure_points"] = static_cast<double>(stats.failure_points);
  layers["core.checks"] = static_cast<double>(stats.injections);
  layers["core.oracle_runs"] = static_cast<double>(stats.distinct_images);
  layers["core.dedup_hits"] = static_cast<double>(stats.dedup_hits);
  layers["core.oracle_share"] =
      stats.injections == 0 ? 0
                            : static_cast<double>(stats.distinct_images) /
                                  static_cast<double>(stats.injections);
  layers["analysis.s"] = duration("analysis");
  layers["analysis.findings"] = static_cast<double>(analysis_findings);
  const double worker_cpu_s =
      children_after.cpu_s() - children_before.cpu_s();
  std::vector<double> checks_per_worker;
  for (const auto& [pid, count] : recovers_per_pid) {
    checks_per_worker.push_back(static_cast<double>(count));
  }
  double max_over_mean = 0;
  if (fleet && !checks_per_worker.empty()) {
    double sum = 0;
    for (double count : checks_per_worker) {
      sum += count;
    }
    max_over_mean =
        *std::max_element(checks_per_worker.begin(), checks_per_worker.end()) /
        (sum / static_cast<double>(checks_per_worker.size()));
  }
  layers["fleet.bootstrap_s"] = Percentile(bootstrap_s, 0.5);
  layers["fleet.worker_cpu_s"] = fleet ? worker_cpu_s : 0;
  layers["fleet.worker_idle_s"] =
      fleet ? workers * inject_s - worker_cpu_s : 0;
  layers["fleet.worker_checks_max_over_mean"] = max_over_mean;
  layers["fleet.worker_peak_rss_mb"] = fleet ? children_after.max_rss_mb : 0;
  layers["bench.unattributed_share"] =
      out.campaign_s > 0 ? out.self_s[root] / out.campaign_s : 0;
  return out;
}

}  // namespace campaign_bench
