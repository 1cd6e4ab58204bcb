// Fault injection phase (§4.1): execute the target, crash it gracefully at
// unique failure points (persistency instructions with at least one store
// since the previous failure point), and use the application's own recovery
// procedure as the consistency oracle.

#ifndef MUMAK_SRC_CORE_FAULT_INJECTION_H_
#define MUMAK_SRC_CORE_FAULT_INJECTION_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <unordered_map>
#include <vector>

#include "src/analysis/seq_finding_index.h"
#include "src/core/failure_point_tree.h"
#include "src/core/report.h"
#include "src/instrument/event_hub.h"
#include "src/instrument/flat_table.h"
#include "src/instrument/trace.h"
#include "src/observability/journal.h"
#include "src/observability/metrics.h"
#include "src/observability/progress.h"
#include "src/observability/span_tracer.h"
#include "src/core/verdict_cache.h"
#include "src/pmem/pm_pool.h"
#include "src/pmem/replay_cursor.h"
#include "src/sandbox/recovery_sandbox.h"
#include "src/targets/target.h"
#include "src/workload/workload.h"

namespace mumak {

// Creates a fresh target instance: one for profiling, one per workload
// execution an injection lane starts and one per in-process recovery
// oracle run. Lanes call it concurrently, so it must be thread-safe.
using TargetFactory = std::function<TargetPtr()>;

// Failure point granularity (§4.1): persistency instructions give Mumak its
// scalability; store granularity is the ablation (and what the Figure 3b
// coverage series counts).
enum class FailurePointGranularity {
  kPersistencyInstruction,
  kStore,
};

// How the injection loop obtains the post-crash image for each failure
// point.
//  - kReExecute: the target runs the workload instrumented and the image
//    is taken from its persistency model at the point. The paper's §4.1
//    loop restarts the workload per failure point; each lane here keeps
//    one execution paused at its last point and resumes it to the next
//    (ImageSource), which gives byte-identical images. With F failure
//    points, trace length T and recovery cost R that is O(lanes × T +
//    F × R) instead of O(F × T + F × R).
//  - kReplay: the profiling run's trace stream additionally carries the
//    bytes written by every store; injection then *synthesizes* each
//    graceful crash image by replaying the recorded stores forward
//    (ReplayCursor), so image
//    synthesis is O(trace length) per range in total and only the
//    uninstrumented recovery oracle runs per failure point. Identical
//    reports at persistency-instruction granularity (a graceful crash is a
//    deterministic program-order prefix).
// Both strategies run through the one injection pipeline
// (src/core/injection_pipeline.h) and need Profile() on the same engine.
enum class InjectionStrategy {
  kReExecute,
  kReplay,
};

// Exception thrown by the injection sink to stop the target at a failure
// point. The pool state at the throw site *is* the graceful crash image:
// pending stores are treated as persisted, respecting program order.
struct CrashSignal {
  FailurePointTree::NodeIndex node = FailurePointTree::kNotFound;
  uint64_t seq = 0;
};

// Event sink implementing failure-point detection. In kProfile mode it
// builds the failure point tree; in kInject mode it throws CrashSignal at
// the first unvisited failure point (marking it visited).
class FailurePointSink : public EventSink {
 public:
  // kProfile builds the tree; kInject crashes at the first unvisited
  // failure point (the reference loop, ReferenceInjectAll); kInjectAt
  // crashes at one pre-assigned instruction counter and never touches the
  // tree. The pipeline pauses executions instead of crashing them, so
  // kInjectAt is only the tests' per-check reference: one restarted
  // execution per image, as the paper's loop runs it.
  enum class Mode { kProfile, kInject, kInjectAt };

  // Sentinel for "no instruction-counter target" (see set_inject_target).
  static constexpr uint64_t kNoSeq = ~0ull;

  FailurePointSink(FailurePointTree* tree, Mode mode,
                   FailurePointGranularity granularity)
      : tree_(tree), mode_(mode), granularity_(granularity) {}

  void OnEvent(const PmEvent& event) override;

  // The failure point a kInjectAt execution crashes at: the event whose
  // instruction counter equals `seq`, the point's first profiled
  // occurrence. Executions are deterministic, so the counter identifies
  // the same point, and unlike call-stack identity it is stable under
  // compiler inlining.
  void set_inject_target(FailurePointTree::NodeIndex node, uint64_t seq) {
    inject_target_ = node;
    target_seq_ = seq;
  }

  // In kProfile mode, records each failure point's *first* instruction
  // counter into `out` (keyed by tree node). This is the injection
  // schedule: where replay synthesizes and re-execution pauses.
  void set_first_seq_out(
      std::unordered_map<FailurePointTree::NodeIndex, uint64_t>* out) {
    first_seq_out_ = out;
  }

 private:
  void HandleFailurePoint(const PmEvent& event);

  FailurePointTree* tree_;
  Mode mode_;
  FailurePointGranularity granularity_;
  FailurePointTree::NodeIndex inject_target_ = FailurePointTree::kNotFound;
  uint64_t target_seq_ = kNoSeq;
  std::unordered_map<FailurePointTree::NodeIndex, uint64_t>* first_seq_out_ =
      nullptr;
  // "Only consider a persistency instruction if there was at least one
  // store performed to PM since the last failure point" (§4.1).
  bool store_since_failure_point_ = false;
  // Tree node per (shadow stack id << 32 | site), filled at the pair's
  // first occurrence: an interned stack id determines its frames, so the
  // frames are copied and the tree walked once per distinct pair.
  FlatTable<FailurePointTree::NodeIndex> nodes_;
};

struct FaultInjectionOptions {
  FailurePointGranularity granularity =
      FailurePointGranularity::kPersistencyInstruction;
  // Wall-clock budget of the injection phase (--budget-seconds): dispatch
  // stops once it elapses, a budget stop (see budget_checks).
  double time_budget_s = std::numeric_limits<double>::infinity();
  // Checks are mutually independent (each crash image depends only on its
  // point), so they parallelise embarrassingly; >1 runs the pipeline's
  // range worker on this many threads (§7 positions Mumak for CI
  // pipelines, where this is the relevant throughput knob).
  uint32_t workers = 1;
  // How crash images are obtained (see InjectionStrategy). kReplay needs
  // Profile() to have run on the same engine; its trace stream then
  // carries the store payloads the replay consumes.
  InjectionStrategy strategy = InjectionStrategy::kReExecute;
  // Events per block of the profile's trace stream. Smaller blocks place
  // seek checkpoints finer; larger ones compress better.
  uint32_t trace_block_events = kTraceV3DefaultBlockEvents;
  // Content-addressed verdict deduplication (src/core/verdict_cache.h):
  // hash each graceful crash image and attribute the cached verdict to any
  // failure point whose image content was already checked, instead of
  // running recovery again. Graceful-image equality implies verdict
  // equality (recovery is deterministic on the image bytes), so reports
  // keep the same unique findings; deduplicated ones carry `dedup_of`
  // provenance. Under kReplay the digest is maintained incrementally by
  // the cursor (near-free); under kReExecute it hashes the image's written
  // pages, not the pool.
  bool image_dedup = true;
  // Opt-in collision guard (--verify-dedup): keep a byte copy of each
  // distinct image and only honour a digest hit when the bytes match.
  bool verify_dedup = false;
  // Replay checkpoints per cursor (src/pmem/replay_cursor.h): each lane's
  // cursor snapshots its image at up to this many trace block starts as
  // it passes them, so a range behind the cursor (or a ranked step
  // backwards) resumes from the nearest checkpoint instead of replaying
  // the whole prefix. Each checkpoint copies the image's written pages
  // once; 0 disables.
  uint32_t seek_checkpoints = 4;
  // When non-empty, the verdict cache is loaded from / saved to this path,
  // keyed by a fingerprint of the profiled trace — repeated campaigns over
  // an unchanged target skip every already-checked image. Requires this
  // engine's Profile() to have run (the fingerprint is recorded there).
  std::string verdict_cache_path;
  // Where the recovery oracle runs (src/sandbox): in-process (historical
  // behaviour) or a fork-server worker pool. The sandboxed policy turns
  // oracle crashes into kRecoveryCrash findings (with the fatal signal as
  // evidence) and hangs into kRecoveryTimeout findings instead of killing
  // or wedging the campaign. `sandbox.metrics` is
  // overridden with `metrics` below.
  SandboxOptions sandbox;
  // Observability hooks (src/observability), all optional and borrowed.
  // When null, the engine pays at most one branch per event on the
  // instrumented hot path and a handful of branches per injection run.
  MetricsRegistry* metrics = nullptr;    // counters/gauges/histograms
  SpanTracer* tracer = nullptr;          // per-run spans, failure-point ids
  ProgressReporter* progress = nullptr;  // live injected/total + ETA
  // Campaign flight recorder (src/observability/journal.h), optional and
  // borrowed: the engine appends one dispatch + one verdict record per
  // failure-point check (hot paths only enqueue; a group-commit thread
  // does the I/O). Null disables journaling at the cost of one branch per
  // check.
  CampaignJournal* journal = nullptr;
  // Decoded prior journal generation (--resume-journal): failure points
  // whose verdicts it records are skipped, and the recorded verdicts fold
  // into the report with the fresh ones, in instruction-counter order, so
  // a resumed campaign's report is byte-identical to an uninterrupted run.
  // Honoured only when the journal's profile fingerprint matches this
  // engine's freshly profiled trace fingerprint (the same staleness key
  // the verdict cache file uses); on mismatch the engine warns and runs
  // the full campaign.
  const JournalReplay* resume = nullptr;
  // Cooperative cancellation (SIGINT/SIGTERM): when set and true, the
  // injection pipeline stops at the next check boundary with
  // budget_exhausted, so the caller can still flush a clean journal
  // footer and a valid partial report.
  const std::atomic<bool>* cancel = nullptr;
  // -- Adaptive injection scheduling (src/core/injection_schedule.h) -------
  // Detector-guided ranking (--rank): dispatch checks in descending
  // expected-yield order — failure points whose epoch overlaps a trace-
  // analysis durability/transient-data finding first, then by epoch store
  // density — so budgeted campaigns spend their checks where bugs are
  // likeliest. Needs `rank_findings` for the finding signal; degrades to
  // store-density + seq order without it.
  bool rank = false;
  // Per-seq trace-analysis finding index feeding the ranking signal.
  // Borrowed; must outlive InjectAll. The pointee may be filled after
  // engine construction (the analysis phase finishes before injection
  // starts when ranking is on).
  const SeqFindingIndex* rank_findings = nullptr;
  // Hard campaign budget (0 = unlimited): stop dispatching once this many
  // checks ran. Like a time_budget_s stop, it is surfaced as
  // budget_stopped + a "budget-exhausted" journal footer reason; the
  // journal prefix stays valid and --resume-journal completes the
  // remainder.
  uint64_t budget_checks = 0;
};

// One entry of the replay injection schedule: an unvisited failure point at
// its first profiled instruction counter. The schedule is seq-sorted —
// processing it in order reproduces the serial re-execution loop's crash
// sequence exactly (and is what makes fleet sharding mergeable
// deterministically: any partition of the schedule, merged back in seq
// order, yields the same report).
struct ReplayPoint {
  FailurePointTree::NodeIndex node;
  uint64_t seq;
};

struct FaultInjectionStats {
  uint64_t failure_points = 0;
  uint64_t injections = 0;
  // Workload executions: the injection phase adds the ones its image
  // sources started, one per lane in seq order (a ranked order restarts a
  // lane's execution at each step back); 0 under replay.
  uint64_t executions = 0;
  uint64_t replayed = 0;    // crash images synthesized from the trace
  uint64_t bugs = 0;
  bool budget_exhausted = false;
  double elapsed_s = 0;
  size_t tree_bytes = 0;
  // Image-dedup accounting (zero when image_dedup is off).
  uint64_t distinct_images = 0;   // oracle actually ran (digest first seen)
  uint64_t dedup_hits = 0;        // verdicts attributed from the cache
  uint64_t dedup_collisions = 0;  // verify mode: digest equal, bytes not
  uint64_t cache_loaded = 0;      // entries loaded from --verdict-cache
  uint64_t cache_saved = 0;       // entries persisted at campaign end
  // Failure points skipped because a resumed journal already recorded
  // their verdict (--resume-journal).
  uint64_t resumed = 0;
  // Bytes of the trace stream replay reads (the profile's v3 stream with
  // store payloads); 0 under kReExecute.
  size_t replay_trace_bytes = 0;
  // Adaptive scheduling accounting (zero when the planner is off).
  uint64_t plan_finding_hits = 0; // planned checks overlapping a finding
  // True when budget_checks or time_budget_s stopped dispatch early
  // (implies budget_exhausted; the journal footer carries
  // "budget-exhausted" so inspect/resume can tell a budget stop from ^C).
  bool budget_stopped = false;
};

class FaultInjectionEngine {
 public:
  FaultInjectionEngine(TargetFactory factory, WorkloadSpec spec,
                       FaultInjectionOptions options = {});

  // Profiling execution (Figure 1 steps 2-6): builds the failure point tree,
  // records the PM access trace as an in-memory v3 stream (replay_trace())
  // and optionally also feeds it to `trace` (an online analyzer or a trace
  // file). Also records the run's stack table and peak volatile footprint
  // (see below).
  FailurePointTree Profile(EventSink* trace = nullptr);

  // Injection loop (Figure 1 steps 7-9) over every unvisited failure point,
  // through the injection pipeline (src/core/injection_pipeline.h): one
  // range inline, or options.workers threads pulling ranges. Requires
  // Profile() to have run on this engine (injection targets the profiled
  // first-hit seqs, and replay needs the recorded trace); throws
  // std::logic_error otherwise.
  Report InjectAll(FailurePointTree* tree, FaultInjectionStats* stats);

  // Convenience: Profile + InjectAll.
  Report Run(FaultInjectionStats* stats);

  // Executes the full workload (setup, operations, finish) on a fresh pool
  // and target. Exposed for baselines and benchmarks. Never inlined: a PM
  // access inlined into a target's Execute takes its site from
  // __builtin_return_address(0), i.e. Execute's return address in this
  // function. Inlined into Profile() (same translation unit, -O3), that
  // address would differ from the one re-execution and the tests see.
  __attribute__((noinline)) static void ExecuteWorkload(
      Target& target, PmPool& pool, const WorkloadSpec& spec);

  // -- Replay inputs captured by Profile() ---------------------------------

  // First profiled instruction counter per failure point (the injection
  // schedule). Populated by every Profile() call.
  const std::unordered_map<FailurePointTree::NodeIndex, uint64_t>&
  first_hit_seq() const {
    return first_seq_;
  }
  // The profiled run's trace as an in-memory v3 stream: what offline trace
  // analysis reads and, with the store payloads it carries when
  // replay_ready(), what replay cursors and fleet workers read. Immutable
  // after Profile() returns.
  const TraceStream& replay_trace() const { return replay_trace_; }
  size_t profiled_pool_size() const { return profiled_pool_size_; }
  // True once Profile() has captured the replay inputs (strategy ==
  // kReplay).
  bool replay_ready() const { return replay_ready_; }
  // True once Profile() has run on this engine (InjectAll's precondition).
  bool profiled() const { return profiled_; }
  // The profiled run's shadow stack by instruction counter (trace-analysis
  // findings resolve their call stacks here) and its peak volatile
  // footprint, sampled every 1024th event and at the end (Table 2's
  // vanilla-RAM denominator: sinks never touch the model, so the profiled
  // run's samples are a vanilla run's).
  const StackTable& stack_table() const { return stack_table_; }
  size_t footprint_peak() const { return footprint_peak_; }

  // Order-sensitive hash of the profiled PM event stream (kinds, offsets,
  // sizes and store payload bytes) plus the pool size — the persistent
  // verdict cache's staleness key. Recorded by Profile() when a cache path
  // is configured; fingerprint_ready() is false otherwise.
  uint64_t trace_fingerprint() const { return trace_fingerprint_; }
  bool fingerprint_ready() const { return fingerprint_ready_; }

  // -- Campaign building blocks (shared with the fleet scheduler) ----------

  // Applies --resume-journal to the tree: failure points whose verdict the
  // prior journal generation recorded (fingerprint-validated) are marked
  // visited and their verdicts queued on resume_schedule(), sorted by seq.
  // The pipeline's Plan stage calls this before splitting the schedule, so
  // resumed points never reach a lane or a fleet worker.
  void ApplyResume(FailurePointTree* tree, FaultInjectionStats* stats);

  // The replay injection schedule: every unvisited failure point at its
  // first profiled occurrence, seq-sorted. Requires Profile() to have run.
  std::vector<ReplayPoint> BuildReplaySchedule(
      const FailurePointTree& tree) const;

  // Verdicts carried over by ApplyResume, seq-sorted.
  const std::vector<JournalVerdict>& resume_schedule() const {
    return resume_schedule_;
  }
  // Per-epoch store counts over the profiled trace, one per failure point
  // in seq order (SummarizeEpochs). Computed by Profile() when --rank
  // needs them (under kReplay); empty otherwise. The pipeline's Plan stage
  // reads these.
  const std::vector<EpochSummary>& epoch_summaries() const {
    return epoch_summaries_;
  }
  const FaultInjectionOptions& options() const { return options_; }
  const TargetFactory& factory() const { return factory_; }

 private:
  TargetFactory factory_;
  WorkloadSpec spec_;
  FaultInjectionOptions options_;
  // Replay inputs recorded by Profile(); node indices are stable across
  // FailurePointTree::Serialize/Deserialize, so these survive the
  // tree-through-a-file round trip in Mumak::Analyze.
  std::unordered_map<FailurePointTree::NodeIndex, uint64_t> first_seq_;
  TraceStream replay_trace_;
  size_t profiled_pool_size_ = 0;
  StackTable stack_table_;
  size_t footprint_peak_ = 0;
  bool profiled_ = false;
  bool replay_ready_ = false;
  uint64_t trace_fingerprint_ = 0;
  bool fingerprint_ready_ = false;
  std::vector<EpochSummary> epoch_summaries_;
  // Verdicts carried over from a resumed journal (fingerprint-validated),
  // sorted by seq; the pipeline folds them into the report with the fresh
  // verdicts.
  std::vector<JournalVerdict> resume_schedule_;
};

// The paper's §4.1 loop as written: re-execute, crash at the first
// unvisited failure point by call-stack match (kInject), run recovery
// in-process, keep the first finding per detail. The reference the
// differential tests hold every pipeline path to; it has no cache,
// sandbox, journal, budget or threads.
Report ReferenceInjectAll(
    const TargetFactory& factory, const WorkloadSpec& spec,
    FailurePointTree* tree, FaultInjectionStats* stats,
    FailurePointGranularity granularity =
        FailurePointGranularity::kPersistencyInstruction);

}  // namespace mumak

#endif  // MUMAK_SRC_CORE_FAULT_INJECTION_H_
