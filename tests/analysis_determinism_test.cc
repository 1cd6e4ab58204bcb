// Determinism guarantees of the sharded detector framework: the report is
// byte-identical across shard counts, across online/offline/file feeding
// modes, and across the whole pipeline's online and offline paths. These
// are the properties that make `--analysis-jobs` a pure throughput knob.

#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/detector_pass.h"
#include "src/analysis/trace_analysis.h"
#include "src/core/fault_injection.h"
#include "src/core/mumak.h"
#include "src/instrument/trace.h"
#include "src/targets/target.h"

namespace mumak {
namespace {

std::vector<PmEvent> CollectTrace(const std::string& target_name,
                                  uint64_t ops) {
  TargetOptions options;
  TargetPtr target = CreateTarget(target_name, options);
  PmPool pool(target->DefaultPoolSize());
  WorkloadSpec spec;
  spec.operations = ops;
  TraceCollector trace;
  {
    ScopedSink attach(pool.hub(), &trace);
    FaultInjectionEngine::ExecuteWorkload(*target, pool, spec);
  }
  return trace.TakeEvents();
}

struct Rendered {
  std::string text;
  std::string json;
  TraceStats stats;
};

Rendered AnalyzeWith(const std::vector<PmEvent>& events, uint32_t jobs,
                     bool eadr) {
  TraceAnalysisOptions options;
  options.eadr_mode = eadr;
  options.jobs = jobs;
  TraceAnalyzer analyzer(std::move(options));
  Rendered out;
  const Report report = analyzer.Analyze(events, &out.stats);
  out.text = report.Render();
  out.json = report.RenderJson();
  return out;
}

// The tentpole guarantee: any shard count produces the same bytes as the
// serial (jobs == 1) analysis, on real traces from the reference targets,
// under both persistency modes.
TEST(AnalysisDeterminism, ShardedReportIsByteIdenticalToSerial) {
  for (const char* target : {"btree", "hashmap_tx", "fast_fair"}) {
    const std::vector<PmEvent> events = CollectTrace(target, 300);
    ASSERT_FALSE(events.empty()) << target;
    for (const bool eadr : {false, true}) {
      const Rendered serial = AnalyzeWith(events, 1, eadr);
      for (const uint32_t jobs : {2u, 4u, 7u}) {
        const Rendered sharded = AnalyzeWith(events, jobs, eadr);
        EXPECT_EQ(serial.text, sharded.text)
            << target << " eadr=" << eadr << " jobs=" << jobs;
        EXPECT_EQ(serial.json, sharded.json)
            << target << " eadr=" << eadr << " jobs=" << jobs;
        EXPECT_EQ(serial.stats.events, sharded.stats.events);
        EXPECT_EQ(serial.stats.lines_tracked, sharded.stats.lines_tracked);
        EXPECT_EQ(serial.stats.findings, sharded.stats.findings);
      }
    }
  }
}

// eADR mode keeps no per-line state in any execution mode.
double ProcessCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + now.tv_nsec * 1e-9;
}

// The shard workers start with the analyzer, which the pipeline builds
// before profiling: idle, they must sleep rather than spin through
// profiling and injection. Fed afterwards, they wake and the report is
// still the serial one.
TEST(AnalysisDeterminism, IdleShardWorkersSleepAndWakeUp) {
  const std::vector<PmEvent> events = CollectTrace("btree", 200);
  const Rendered serial = AnalyzeWith(events, 1, /*eadr=*/false);
  const double before = ProcessCpuSeconds();
  TraceAnalysisOptions options;
  options.jobs = 4;
  TraceAnalyzer analyzer(std::move(options));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_LT(ProcessCpuSeconds() - before, 0.040);
  for (const PmEvent& event : events) {
    analyzer.OnEvent(event);
  }
  TraceStats stats;
  const Report report = analyzer.Finish(&stats);
  EXPECT_EQ(report.Render(), serial.text);
  EXPECT_EQ(stats.events, serial.stats.events);
}

TEST(AnalysisDeterminism, EadrTracksNoLines) {
  const std::vector<PmEvent> events = CollectTrace("btree", 100);
  for (const uint32_t jobs : {1u, 4u}) {
    const Rendered out = AnalyzeWith(events, jobs, /*eadr=*/true);
    EXPECT_EQ(out.stats.lines_tracked, 0u) << "jobs=" << jobs;
  }
}

// Feeding mode must not matter either: one-shot in-memory, incremental
// OnEvent (the online EventSink path), and the spooled-file path all
// produce the same bytes at the same shard count.
TEST(AnalysisDeterminism, FileOnlineAndInMemoryAgree) {
  const std::vector<PmEvent> events = CollectTrace("hashmap_tx", 200);

  const Rendered in_memory = AnalyzeWith(events, 4, /*eadr=*/false);

  TraceAnalysisOptions options;
  options.jobs = 4;
  TraceAnalyzer online(std::move(options));
  for (const PmEvent& event : events) {
    online.OnEvent(event);
  }
  TraceStats online_stats;
  const Report online_report = online.Finish(&online_stats);
  EXPECT_EQ(in_memory.text, online_report.Render());
  EXPECT_EQ(in_memory.json, online_report.RenderJson());

  const std::string path =
      std::filesystem::temp_directory_path() /
      ("mumak_determinism_" + std::to_string(::getpid()) + ".bin");
  {
    TraceFileSink sink(path, TraceSinkOptions{});
    for (const PmEvent& event : events) {
      sink.OnEvent(event);
    }
    sink.Close();
    ASSERT_TRUE(sink.ok());
  }
  TraceAnalysisOptions file_options;
  file_options.jobs = 4;
  TraceAnalyzer from_file(std::move(file_options));
  TraceStats file_stats;
  const Report file_report = from_file.AnalyzeFile(path, &file_stats);
  std::remove(path.c_str());
  EXPECT_EQ(in_memory.text, file_report.Render());
  EXPECT_EQ(in_memory.json, file_report.RenderJson());
  EXPECT_EQ(in_memory.stats.events, file_stats.events);
}

// Whole-pipeline equivalence: online analysis (analyzer attached to the
// profiling run) and offline analysis (the profile's in-memory trace
// stream on a worker thread) produce the same combined report — and
// neither writes a trace file to the temp directory.
TEST(AnalysisDeterminism, PipelineOnlineMatchesOffline) {
  auto run = [](bool online, uint32_t jobs) {
    TargetOptions options;
    MumakOptions mumak_options;
    mumak_options.fault_injection = false;
    mumak_options.online_analysis = online;
    mumak_options.analysis_jobs = jobs;
    WorkloadSpec spec;
    spec.operations = 200;
    Mumak mumak([options] { return CreateTarget("btree", options); }, spec,
                mumak_options);
    return mumak.Analyze().report.RenderJson();
  };
  const std::string offline_serial = run(false, 1);
  EXPECT_EQ(offline_serial, run(true, 1));
  EXPECT_EQ(offline_serial, run(false, 4));
  EXPECT_EQ(offline_serial, run(true, 4));

  // No temp trace files: the offline runs above read the stream in
  // memory, so none named like the old spool may exist for this process.
  const std::string prefix = "mumak_trace_" + std::to_string(::getpid());
  const char* tmp = std::getenv("TMPDIR");
  for (const auto& entry : std::filesystem::directory_iterator(
           tmp != nullptr ? tmp : "/tmp")) {
    EXPECT_EQ(entry.path().filename().string().rfind(prefix, 0),
              std::string::npos)
        << "leaked spool file: " << entry.path();
  }
}

PmEvent Ev(EventKind kind, uint64_t offset, uint32_t size, uint32_t site,
           uint64_t seq) {
  PmEvent event;
  event.kind = kind;
  event.offset = offset;
  event.size = size;
  event.site = site;
  event.seq = seq;
  return event;
}

// Detector selection: running a subset only reports that subset's
// patterns.
TEST(DetectorFramework, DetectorSelectionLimitsReport) {
  std::vector<PmEvent> events;
  events.push_back(Ev(EventKind::kStore, 0, 8, 1, 1));
  events.push_back(Ev(EventKind::kClwb, 0, 64, 2, 2));
  events.push_back(Ev(EventKind::kClwb, 0, 64, 3, 3));  // redundant flush
  events.push_back(Ev(EventKind::kStore, 256, 8, 4, 4));  // never flushed

  TraceAnalysisOptions options;
  options.detectors = std::vector<std::string>{"redundant-flush"};
  TraceAnalyzer analyzer(std::move(options));
  const Report report = analyzer.Analyze(events, nullptr);
  ASSERT_FALSE(report.findings().empty());
  for (const Finding& finding : report.findings()) {
    EXPECT_TRUE(finding.kind == FindingKind::kRedundantFlush ||
                finding.kind == FindingKind::kMultiStoreFlush)
        << report.Render();
  }
}

// A caller-provided global pass plugs into the same run and sees every
// event in total order.
class CountingPass : public DetectorPass {
 public:
  std::string_view name() const override { return "counting"; }
  bool line_affine() const override { return false; }
  bool supports_mode(bool) const override { return true; }
  bool wants_global_events() const override { return true; }

  void OnGlobalEvent(const PmEvent& event, EmitContext& ctx) override {
    (void)ctx;
    ++events_;
    last_seq_ = event.seq;
  }
  void OnTraceFinish(const TraceTail& tail, EmitContext& ctx) override {
    (void)tail;
    ctx.Emit(FindingKind::kUnflushedStore, kInvalidFrame, 0, last_seq_,
             "saw " + std::to_string(events_) + " events",
             /*dedup_by_site=*/false);
  }

  uint64_t events_ = 0;
  uint64_t last_seq_ = 0;
};

TEST(DetectorFramework, ExtraGlobalPassPluggability) {
  std::vector<PmEvent> events;
  for (uint64_t i = 0; i < 10; ++i) {
    events.push_back(Ev(EventKind::kStore, i * 64, 8, 1, i + 1));
  }
  CountingPass pass;
  TraceAnalysisOptions options;
  options.detectors = std::vector<std::string>{};  // only the extra pass
  options.extra_global_passes = {&pass};
  TraceAnalyzer analyzer(std::move(options));
  const Report report = analyzer.Analyze(events, nullptr);
  EXPECT_EQ(pass.events_, 10u);
  ASSERT_EQ(report.findings().size(), 1u);
  EXPECT_EQ(report.findings()[0].detail, "saw 10 events");
}

class LineAffineExtra : public DetectorPass {
 public:
  std::string_view name() const override { return "line-affine-extra"; }
};

TEST(DetectorFramework, InvalidConfigurationsThrow) {
  {
    TraceAnalysisOptions options;
    options.detectors = std::vector<std::string>{"no-such-detector"};
    EXPECT_THROW(TraceAnalyzer{std::move(options)}, std::invalid_argument);
  }
  {
    // The eADR pass rejects ADR mode...
    TraceAnalysisOptions options;
    options.detectors = std::vector<std::string>{"eadr"};
    EXPECT_THROW(TraceAnalyzer{std::move(options)}, std::invalid_argument);
  }
  {
    // ...and the ADR line detectors reject eADR mode.
    TraceAnalysisOptions options;
    options.eadr_mode = true;
    options.detectors = std::vector<std::string>{"durability"};
    EXPECT_THROW(TraceAnalyzer{std::move(options)}, std::invalid_argument);
  }
  {
    // Extra passes must be global-affinity.
    LineAffineExtra extra;
    TraceAnalysisOptions options;
    options.extra_global_passes = {&extra};
    EXPECT_THROW(TraceAnalyzer{std::move(options)}, std::invalid_argument);
  }
}

}  // namespace
}  // namespace mumak
