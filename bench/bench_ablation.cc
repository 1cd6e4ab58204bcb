// Ablations of the design decisions called out in DESIGN.md:
//  1. Failure-point granularity (§4.1): persistency instructions vs every
//     store — space size and injection time.
//  2. Backtrace resolution (§5): traces carry only instruction counters;
//     stacks come from the profiling run's stack table (the stack id
//     wherever it changed) by lookup, with no re-execution.
//  3. Exhaustive ordering replay (Yat) vs Mumak's program-order prefixes on
//     a tiny workload — cost and what each finds.
//  4. Parallel fault injection: checks are mutually independent, so the
//     loop parallelises across workers (the CI-throughput knob §7
//     motivates). Each lane runs the workload once, paused at its points,
//     so workers split the oracle runs, not re-executions.

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/mumak.h"

namespace mumak {
namespace {

double Time(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace
}  // namespace mumak

int main() {
  using namespace mumak;
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;

  std::printf("=== Ablation 1: failure point granularity (btree) ===\n");
  std::printf("%-10s %26s %26s\n", "ops", "persistency-instruction",
              "store-level");
  for (uint64_t ops : {300, 1000, 3000}) {
    WorkloadSpec spec = EvaluationWorkload(ops, /*spt=*/true);
    uint64_t fp_persist = 0;
    uint64_t fp_store = 0;
    double t_persist = Time([&] {
      FaultInjectionOptions fi;
      fi.granularity = FailurePointGranularity::kPersistencyInstruction;
      FaultInjectionEngine engine(MakeFactory("btree", options), spec, fi);
      FaultInjectionStats stats;
      engine.Run(&stats);
      fp_persist = stats.failure_points;
    });
    double t_store = Time([&] {
      FaultInjectionOptions fi;
      fi.granularity = FailurePointGranularity::kStore;
      fi.time_budget_s = 30;
      FaultInjectionEngine engine(MakeFactory("btree", options), spec, fi);
      FaultInjectionStats stats;
      engine.Run(&stats);
      fp_store = stats.failure_points;
    });
    std::printf("%-10llu %14llu fp %8.2fs %14llu fp %8.2fs\n",
                static_cast<unsigned long long>(ops),
                static_cast<unsigned long long>(fp_persist), t_persist,
                static_cast<unsigned long long>(fp_store), t_store);
    std::fflush(stdout);
  }

  std::printf("\n=== Ablation 2: backtrace resolution (§5) ===\n");
  std::printf("%-8s %10s %14s %12s %10s %12s\n", "ops", "events",
              "table entries", "bytes/event", "findings", "resolve(us)");
  {
    TargetOptions buggy = options;
    buggy.bugs = {"btree.rf_get", "btree.rfence_put"};
    for (uint64_t ops : {1500, 6000}) {
      FaultInjectionEngine engine(MakeFactory("btree", buggy),
                                  EvaluationWorkload(ops, /*spt=*/true));
      TraceAnalyzer analyzer(TraceAnalysisOptions{});
      engine.Profile(&analyzer);
      TraceStats trace;
      const Report report = analyzer.Finish(&trace);
      const StackTable& table = engine.stack_table();
      size_t resolved_chars = 0;
      const double resolve_s = Time([&] {
        for (const Finding& finding : report.findings()) {
          resolved_chars += table.Describe(finding.seq).size();
        }
      });
      std::printf("%-8llu %10llu %14zu %12.2f %10zu %12.1f\n",
                  static_cast<unsigned long long>(ops),
                  static_cast<unsigned long long>(trace.events),
                  table.entries(),
                  static_cast<double>(table.FootprintBytes()) /
                      static_cast<double>(std::max<uint64_t>(trace.events, 1)),
                  report.findings().size(), resolve_s * 1e6);
      std::fflush(stdout);
    }
  }

  std::printf("\n=== Ablation 3: Mumak vs Yat-style ordering replay ===\n");
  {
    TargetOptions buggy;
    buggy.bugs = {"lh.c1_token_before_kv"};
    WorkloadSpec tiny = EvaluationWorkload(60, /*spt=*/true);
    tiny.put_pct = 60;
    tiny.get_pct = 20;
    tiny.delete_pct = 20;

    ToolRunStats mumak_stats;
    auto mumak_tool = CreateBaselineTool("mumak");
    Report mumak_report = mumak_tool->Analyze(
        MakeFactory("level_hashing", buggy), tiny, ScaledBudget(30), &mumak_stats);

    ToolRunStats yat_stats;
    auto yat = CreateBaselineTool("yat");
    Report yat_report = yat->Analyze(MakeFactory("level_hashing", buggy),
                                     tiny, ScaledBudget(30), &yat_stats);

    std::printf("%-8s %10s %12s %16s\n", "tool", "time", "bugs",
                "states/images");
    std::printf("%-8s %10s %12llu %16llu\n", "mumak",
                FormatSeconds(mumak_stats.elapsed_s,
                              mumak_stats.timed_out)
                    .c_str(),
                static_cast<unsigned long long>(mumak_report.BugCount()),
                static_cast<unsigned long long>(mumak_stats.units_explored));
    std::printf("%-8s %10s %12llu %16llu\n", "yat",
                FormatSeconds(yat_stats.elapsed_s, yat_stats.timed_out)
                    .c_str(),
                static_cast<unsigned long long>(yat_report.BugCount()),
                static_cast<unsigned long long>(yat_stats.units_explored));
    std::printf(
        "\nshape check: on a 60-op workload Yat already needs orders of\n"
        "magnitude more post-failure executions than Mumak's one per\n"
        "unique failure point (§3: Yat needs years for full coverage).\n");
  }
  std::printf("\n=== Ablation 4: parallel fault injection (btree) ===\n");
  std::printf("%-10s %12s %12s %12s %10s\n", "workers", "injections",
              "bugs", "time", "speedup");
  {
    WorkloadSpec spec = EvaluationWorkload(3000, /*spt=*/true);
    TargetOptions seeded = options;
    seeded.bugs = {"btree.split_unlogged"};
    double serial_time = 0;
    for (uint32_t workers : {1u, 2u, 4u, 8u}) {
      FaultInjectionOptions fi;
      fi.workers = workers;
      FaultInjectionEngine engine(MakeFactory("btree", seeded), spec, fi);
      FaultInjectionStats stats;
      uint64_t bugs = 0;
      const double elapsed = Time([&] {
        const Report report = engine.Run(&stats);
        bugs = report.BugCount();
      });
      if (workers == 1) {
        serial_time = elapsed;
      }
      std::printf("%-10u %12llu %12llu %11.2fs %9.1fx\n", workers,
                  static_cast<unsigned long long>(stats.injections),
                  static_cast<unsigned long long>(bugs), elapsed,
                  serial_time / elapsed);
    }
    std::printf(
        "\nshape check: identical injections and findings at every worker\n"
        "count. Each lane runs the workload once, paused at its failure\n"
        "points, so workers split only the oracle runs; when those are\n"
        "short, profiling dominates and more workers do not help.\n");
  }
  return 0;
}
