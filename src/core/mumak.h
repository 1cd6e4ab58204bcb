// The Mumak analysis pipeline (Figure 1): instrument, profile, inject
// faults with the recovery oracle, analyse the trace, and produce a
// combined report. The workload runs once outside injection: the
// profiling run also records the shadow stack at every instruction
// counter (finding locations are a lookup, not a backtrace re-execution)
// and the volatile footprint Table 2 divides by.

#ifndef MUMAK_SRC_CORE_MUMAK_H_
#define MUMAK_SRC_CORE_MUMAK_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "src/core/fault_injection.h"
#include "src/core/report.h"
#include "src/fleet/fleet.h"
#include "src/core/resource_stats.h"
#include "src/analysis/trace_analysis.h"
#include "src/instrument/trace_v3.h"
#include "src/observability/metrics.h"
#include "src/observability/progress.h"
#include "src/observability/span_tracer.h"

namespace mumak {

struct MumakOptions {
  FailurePointGranularity granularity =
      FailurePointGranularity::kPersistencyInstruction;
  bool fault_injection = true;
  bool trace_analysis = true;
  bool report_warnings = true;
  // Analyse the trace under eADR persistency semantics (§4.3): flushes are
  // overhead, durability is free, ordering still matters.
  bool eadr_mode = false;
  // Report dirty overwrites (multiple stores to the same 8-byte granule
  // without an intervening flush); opt-in, see
  // TraceAnalysisOptions::report_dirty_overwrites.
  bool report_dirty_overwrites = false;
  // Detector passes to run, by DetectorRegistry name; nullopt selects the
  // default set for the persistency mode (see TraceAnalysisOptions).
  std::optional<std::vector<std::string>> detectors;
  // Shard worker threads for the trace analysis (TraceAnalysisOptions::
  // jobs). The report is byte-identical at any value.
  uint32_t analysis_jobs = 1;
  // Attach the analyzer to the profiling execution as an event sink, so
  // the analysis overlaps the workload itself. When false, the analysis
  // reads the profile's in-memory v3 trace stream (block-parallel when
  // analysis_jobs > 1) on a worker thread, overlapping fault injection —
  // either way the analysis no longer serialises the pipeline.
  bool online_analysis = false;
  // On-disk format for a saved trace (the CLI's --save-trace): 3 (default)
  // writes columnar compressed v3 blocks; 2 writes the flat v2 row stream
  // (compatibility with older offline tools). The profile's in-memory
  // stream is always v3.
  uint32_t trace_format = 3;
  // Events per v3 block of the profile's trace stream and of a saved v3
  // trace (seek granularity vs compression trade-off).
  uint32_t trace_block_events = kTraceV3DefaultBlockEvents;
  // Replay seek checkpoints (see FaultInjectionOptions::seek_checkpoints).
  uint32_t seek_checkpoints = 4;
  // Injection-phase wall-clock budget (see FaultInjectionOptions).
  double time_budget_s = std::numeric_limits<double>::infinity();
  // Injection worker threads (see FaultInjectionOptions::workers).
  uint32_t injection_workers = 1;
  // Fleet mode (src/fleet): when fleet.workers > 1 the injection phase
  // shards across forked worker *processes* instead of threads (requires —
  // and forces — the replay strategy). The merged report is byte-identical
  // to a single-process run at any worker count.
  FleetConfig fleet;
  // How injection obtains crash images (see InjectionStrategy): from the
  // target's own execution, paused at each failure point (one per lane),
  // or synthesized by replaying the profiled trace (kReplay — the
  // profiling run then also records store payloads).
  InjectionStrategy injection_strategy = InjectionStrategy::kReExecute;
  // Content-addressed verdict deduplication and its persistent cross-run
  // cache (see FaultInjectionOptions for semantics).
  bool image_dedup = true;
  bool verify_dedup = false;
  std::string verdict_cache_path;
  // Adaptive injection scheduling (see FaultInjectionOptions). rank joins
  // the trace analysis before injection starts so its findings can order
  // the dispatch.
  bool rank = false;
  uint64_t budget_checks = 0;
  // Recovery-oracle isolation (src/sandbox): run each consistency check in
  // a fork-server worker process with a hard deadline, so recovery code
  // that segfaults or hangs on a crash image becomes a reported bug
  // instead of a tool failure. Defaults to in-process.
  SandboxOptions sandbox;
  // When set, the failure point tree is serialised here after profiling
  // and re-loaded before injection — the paper's pipeline runs the two
  // phases as separate executions sharing the tree through a file (§5
  // discusses the address-stability requirements this imposes).
  std::string tree_path;
  // Observability hooks (src/observability), all optional and borrowed;
  // they must outlive Analyze(). With all three null the pipeline runs
  // exactly as before: the instrumented hot path pays at most one branch
  // per event.
  //  - metrics: named counters/gauges/histograms (PM events by type,
  //    failure-point-tree size, injection and recovery outcomes, pattern
  //    hits); snapshotted into MumakResult::metrics.
  //  - tracer: one span per pipeline phase plus per-injection-run spans
  //    tagged with failure-point ids (Chrome trace-event JSON).
  //  - progress: live injected/total + ETA line for the CLI.
  MetricsRegistry* metrics = nullptr;
  SpanTracer* tracer = nullptr;
  ProgressReporter* progress = nullptr;
  // Campaign flight recorder (src/observability/journal.h), optional and
  // borrowed: phase transitions, the profile summary, one dispatch +
  // verdict record per failure-point check, and the resolved trace-
  // analysis findings are appended as the pipeline runs. The caller owns
  // the journal's header/footer (and its lifetime).
  CampaignJournal* journal = nullptr;
  // Decoded prior journal generation (--resume-journal); see
  // FaultInjectionOptions::resume for semantics.
  const JournalReplay* resume = nullptr;
  // Cooperative cancellation (see FaultInjectionOptions::cancel): the
  // injection loops stop at the next check boundary and Analyze() returns
  // normally with budget_exhausted set, so the caller can still write a
  // journal footer and a partial report.
  const std::atomic<bool>* cancel = nullptr;
};

struct MumakResult {
  Report report;
  FaultInjectionStats fault_injection;
  TraceStats trace;
  ResourceStats resources;
  // Snapshot of MumakOptions::metrics taken at the end of Analyze();
  // empty when no registry was wired up.
  MetricsSnapshot metrics;
  double elapsed_s = 0;
  bool budget_exhausted = false;
};

class Mumak {
 public:
  Mumak(TargetFactory factory, WorkloadSpec spec, MumakOptions options = {});

  MumakResult Analyze();

 private:
  TargetFactory factory_;
  WorkloadSpec spec_;
  MumakOptions options_;
};

}  // namespace mumak

#endif  // MUMAK_SRC_CORE_MUMAK_H_
