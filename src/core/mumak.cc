#include "src/core/mumak.h"

#include <sys/resource.h>

#include <chrono>
#include <exception>
#include <fstream>
#include <optional>
#include <thread>

#include "src/fleet/scheduler.h"

namespace mumak {
namespace {

double CpuSeconds() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto to_s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return to_s(usage.ru_utime) + to_s(usage.ru_stime);
}

}  // namespace

Mumak::Mumak(TargetFactory factory, WorkloadSpec spec, MumakOptions options)
    : factory_(std::move(factory)), spec_(spec), options_(options) {}

MumakResult Mumak::Analyze() {
  const auto wall_start = std::chrono::steady_clock::now();
  const double cpu_start = CpuSeconds();
  MumakResult result;

  // Phase transitions mirror the span structure into the journal, so an
  // anytime reader can tell which pipeline stage a dead campaign was in.
  auto journal_phase = [this](const char* name, bool begin) {
    if (options_.journal != nullptr) {
      options_.journal->WritePhase(name, begin);
    }
  };

  // Step 1-6: one instrumented execution builds the failure point tree and
  // records the PM access trace as an in-memory v3 stream (the paper stages
  // this data on a tmpfs mount; the stream is those bytes, in DRAM).
  FaultInjectionOptions fi_options;
  fi_options.granularity = options_.granularity;
  fi_options.time_budget_s = options_.time_budget_s;
  fi_options.workers = options_.injection_workers;
  fi_options.strategy = options_.injection_strategy;
  fi_options.trace_block_events = options_.trace_block_events;
  // Fleet mode shards crash-image synthesis across forked processes, which
  // only the trace-replay strategy supports (re-execution cannot hand a
  // schedule range to another process).
  if (options_.fleet.workers > 1) {
    fi_options.strategy = InjectionStrategy::kReplay;
  }
  fi_options.rank = options_.rank;
  fi_options.budget_checks = options_.budget_checks;
  // Ranking reads the trace-analysis findings through this index; the
  // engine copies its options at construction, so the (empty for now)
  // pointee is wired up front and filled right before injection, after
  // the analysis thread lands.
  SeqFindingIndex rank_findings;
  if (options_.rank && options_.trace_analysis) {
    fi_options.rank_findings = &rank_findings;
  }
  fi_options.image_dedup = options_.image_dedup;
  fi_options.verify_dedup = options_.verify_dedup;
  fi_options.verdict_cache_path = options_.verdict_cache_path;
  fi_options.seek_checkpoints = options_.seek_checkpoints;
  fi_options.sandbox = options_.sandbox;
  fi_options.metrics = options_.metrics;
  fi_options.tracer = options_.tracer;
  fi_options.progress = options_.progress;
  fi_options.journal = options_.journal;
  fi_options.resume = options_.resume;
  fi_options.cancel = options_.cancel;
  FaultInjectionEngine engine(factory_, spec_, fi_options);
  // Online mode attaches the analyzer to the profiling execution directly;
  // offline mode analyses the engine's trace stream on a worker thread,
  // overlapping fault injection.
  const bool online = options_.trace_analysis && options_.online_analysis;
  std::optional<TraceAnalyzer> analyzer;
  if (options_.trace_analysis) {
    TraceAnalysisOptions ta_options;
    ta_options.report_warnings = options_.report_warnings;
    ta_options.report_dirty_overwrites = options_.report_dirty_overwrites;
    ta_options.eadr_mode = options_.eadr_mode;
    ta_options.detectors = options_.detectors;
    ta_options.jobs = options_.analysis_jobs;
    ta_options.metrics = options_.metrics;
    ta_options.journal = options_.journal;
    analyzer.emplace(std::move(ta_options));
  }
  journal_phase("profile", true);
  FailurePointTree tree = engine.Profile(online ? &*analyzer : nullptr);
  journal_phase("profile", false);
  result.fault_injection.executions = 1;

  // Optional phase separation: persist the tree and reload it, as the
  // paper's pipeline does between the profiling and injection executions.
  if (!options_.tree_path.empty()) {
    {
      std::ofstream out(options_.tree_path,
                        std::ios::binary | std::ios::trunc);
      tree.Serialize(out);
    }
    std::ifstream in(options_.tree_path, std::ios::binary);
    tree = FailurePointTree::Deserialize(in);
  }

  // Steps 7-11: fault injection with the recovery oracle, with the trace
  // analysis running concurrently on a worker thread (the phases are
  // parallel in the paper's pipeline too). In online mode the events were
  // already analysed during profiling and Finish() only drains the shards.
  Report trace_report;
  std::thread analysis_thread;
  std::exception_ptr analysis_error;
  if (options_.trace_analysis) {
    analysis_thread = std::thread([&] {
      ScopedSpan span(options_.tracer, "trace_analysis");
      try {
        trace_report =
            online ? analyzer->Finish(&result.trace)
                   : analyzer->AnalyzeStream(engine.replay_trace(),
                                             &result.trace);
      } catch (...) {
        analysis_error = std::current_exception();
      }
      span.AddArg("events", result.trace.events);
    });
  }
  try {
    if (options_.fault_injection) {
      // Detector-guided ranking consumes the analysis findings, so the
      // otherwise-concurrent analysis must finish before dispatch order is
      // decided. This serialises the two phases — the price of ranking;
      // pruning alone keeps them overlapped.
      if (options_.rank && analysis_thread.joinable()) {
        analysis_thread.join();
        if (analysis_error) {
          std::rethrow_exception(analysis_error);
        }
        rank_findings = BuildSeqFindingIndex(trace_report);
      }
      ScopedSpan span(options_.tracer, "inject");
      journal_phase("inject", true);
      Report injection_report =
          options_.fleet.workers > 1 && engine.replay_ready()
              ? RunFleetCampaign(&engine, &tree, &result.fault_injection,
                                 options_.fleet)
              : engine.InjectAll(&tree, &result.fault_injection);
      journal_phase("inject", false);
      span.AddArg("injections", result.fault_injection.injections);
      result.report.Merge(injection_report);
    }
  } catch (...) {
    if (analysis_thread.joinable()) {
      analysis_thread.join();
    }
    throw;
  }
  if (analysis_thread.joinable()) {
    analysis_thread.join();
  }
  if (analysis_error) {
    std::rethrow_exception(analysis_error);
  }
  if (options_.trace_analysis) {
    // Every detector locates a finding at its seq's own site; the profile's
    // stack table adds the call stack live at that seq. Journal the
    // findings only now, so the journal carries exactly what the final
    // report carries and an anytime/resumed report reconstructs it byte
    // for byte. (Injection findings were journaled per verdict.)
    for (Finding finding : trace_report.findings()) {
      const std::string stack = engine.stack_table().Describe(finding.seq);
      if (!stack.empty()) {
        finding.location += " <- " + stack;
      }
      if (options_.journal != nullptr) {
        options_.journal->WriteFinding(finding);
      }
      result.report.Add(std::move(finding));
    }
  }

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  result.elapsed_s = wall;
  result.budget_exhausted = result.fault_injection.budget_exhausted;

  // The trace stream stands in for the paper's tmpfs-staged trace file, so
  // like that file it is not counted: the tool's DRAM is the failure point
  // tree plus the analyzer's per-line state.
  result.resources.tool_bytes =
      result.fault_injection.tree_bytes + result.trace.footprint_bytes;
  const size_t baseline = engine.footprint_peak() + (64u << 10);
  result.resources.ram_multiplier =
      static_cast<double>(baseline + result.resources.tool_bytes) /
      static_cast<double>(baseline);
  result.resources.pm_multiplier = 1.0;  // Mumak stores no metadata in PM
  const double cpu = CpuSeconds() - cpu_start;
  result.resources.cpu_load = wall > 0 ? std::max(1.0, cpu / wall) : 1.0;
  if (options_.metrics != nullptr) {
    options_.metrics->GetGauge("pipeline.elapsed_us")
        ->Set(static_cast<uint64_t>(wall * 1e6));
    options_.metrics->GetGauge("pipeline.tool_bytes")
        ->Set(result.resources.tool_bytes);
    result.metrics = options_.metrics->Snapshot();
  }
  return result;
}

}  // namespace mumak
