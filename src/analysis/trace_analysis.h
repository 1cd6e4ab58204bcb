// Trace analysis phase (§4.2): detect the patterns of PM misuse that fault
// injection cannot expose — durability bugs masked by the graceful crash
// images, performance bugs, and ordering patterns beyond program order
// (reported as warnings).
//
// The analysis is structured as a set of pluggable DetectorPass objects
// (src/analysis/detector_pass.h) driven by a cache-line-sharded dispatcher:
// line-keyed events route to per-shard workers over bounded SPSC queues,
// fences broadcast as epoch markers, and the per-shard findings merge into
// one canonically-ordered report. The merged report is byte-identical at
// any `jobs` count, so parallelism is a pure throughput knob.
//
// The analyzer is an EventSink: it can be attached to the profiling
// execution directly (online mode — analysis overlaps the workload), fed
// incrementally, or run one-shot over an event vector, the profile's
// in-memory v3 stream or a trace file. Analysis memory is the compressed
// trace (about 1-3 bytes per event) plus per-cache-line state.

#ifndef MUMAK_SRC_ANALYSIS_TRACE_ANALYSIS_H_
#define MUMAK_SRC_ANALYSIS_TRACE_ANALYSIS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/report.h"
#include "src/instrument/event_hub.h"
#include "src/instrument/pm_event.h"
#include "src/instrument/trace.h"
#include "src/observability/metrics.h"

namespace mumak {

class CampaignJournal;
class DetectorPass;
class ShardedAnalysis;

struct TraceAnalysisOptions {
  bool report_warnings = true;
  // Report dirty overwrites (multiple stores to the same 8-byte granule
  // without an intervening flush). §2 considers these a strong indication
  // of transient data; undo-logged transactional code legitimately
  // overwrites dirty data before the commit flush, so this pattern is an
  // opt-in, like PMDebugger's.
  bool report_dirty_overwrites = false;
  // eADR mode (§2, §4.3): the persistence domain extends to the CPU
  // caches, so stores are persistent once globally visible. Under eADR
  // every cache line flush is pure overhead (reported as a redundant
  // flush), fences are still needed to order stores, and the durability
  // patterns do not apply. Fault injection is unaffected: atomicity and
  // ordering bugs exist on eADR systems too.
  bool eadr_mode = false;
  // Detector passes to run, by DetectorRegistry name. nullopt selects the
  // default set for the persistency mode (DefaultDetectorNames); an
  // explicit empty list runs only extra_global_passes. Unknown names, or
  // passes that do not support the selected persistency mode, make the
  // TraceAnalyzer constructor throw std::invalid_argument.
  std::optional<std::vector<std::string>> detectors;
  // Caller-owned passes appended after the named ones. They must be
  // global-affinity (DetectorPass::line_affine() == false): they observe
  // every event in total order on the dispatch thread, and are never
  // instantiated per shard. Borrowed; must outlive the analyzer.
  std::vector<DetectorPass*> extra_global_passes;
  // Shard worker threads. 1 (the default) analyses inline on the caller's
  // thread with no queues or workers; N > 1 partitions cache lines across
  // N workers. The merged report is byte-identical either way.
  uint32_t jobs = 1;
  // Optional pattern-hit accounting ("trace.pattern.<kind>" counters):
  // every detected pattern instance counts, including instances collapsed
  // by the per-site deduplication and warnings suppressed by
  // report_warnings — the counters measure what the trace contains, the
  // report what the user asked to see. Per-pass candidate counters
  // ("analysis.pass.<name>.candidates"), per-shard record counters and the
  // "analysis.shard_us" busy-time histogram land here too. Borrowed, may
  // be null.
  MetricsRegistry* metrics = nullptr;
  // Campaign flight recorder (src/observability/journal.h): Finish()
  // appends one "analysis" summary record (events, lines tracked, shard
  // count) so an anytime reader can tell how far the trace analysis got.
  // Borrowed, may be null.
  CampaignJournal* journal = nullptr;
};

struct TraceStats {
  uint64_t events = 0;
  uint64_t lines_tracked = 0;
  uint64_t findings = 0;
  double elapsed_s = 0;
  size_t footprint_bytes = 0;
};

class TraceAnalyzer : public EventSink {
 public:
  explicit TraceAnalyzer(TraceAnalysisOptions options = {});
  ~TraceAnalyzer() override;

  TraceAnalyzer(const TraceAnalyzer&) = delete;
  TraceAnalyzer& operator=(const TraceAnalyzer&) = delete;

  // Incremental interface: feed events in order (single producer thread),
  // then Finish(). As an EventSink the analyzer attaches directly to the
  // profiling execution's hub for online analysis.
  void OnEvent(const PmEvent& event) override;
  Report Finish(TraceStats* stats);

  // One-shot over an in-memory trace.
  Report Analyze(const std::vector<PmEvent>& trace, TraceStats* stats);

  // One-shot over a trace file of any version: LoadTraceFile, then
  // AnalyzeStream. Salvage warnings go to stderr; a file that does not
  // load prints why and analyses as an empty trace.
  Report AnalyzeFile(const std::string& path, TraceStats* stats);

  // One-shot over an in-memory v3 trace stream. With jobs > 1 it runs
  // block-parallel: `jobs` worker threads decode blocks straight out of
  // the stream while this thread feeds the events to the dispatcher in
  // block order, so the report stays byte-identical to a serial pass. A
  // block that fails to decode throws std::runtime_error: a stream is
  // validated when made.
  Report AnalyzeStream(const TraceStream& stream, TraceStats* stats);

 private:
  // Finish() plus the elapsed time since `start`.
  Report FinishTimed(std::chrono::steady_clock::time_point start,
                     TraceStats* stats);

  std::unique_ptr<ShardedAnalysis> impl_;
  uint32_t jobs_ = 1;
};

}  // namespace mumak

#endif  // MUMAK_SRC_ANALYSIS_TRACE_ANALYSIS_H_
