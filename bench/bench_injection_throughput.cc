// Injection throughput: the paper's §4.1 loop as written (the `reference`
// row, ReferenceInjectAll: one restarted workload execution per failure
// point) against the pipeline's two image sources, kReExecute (one paused
// execution per lane, resumed from point to point) and kReplay (crash
// images synthesized from the profiled trace, ReplayCursor), across worker
// counts. Prints a table and emits BENCH_injection.json.
//
// Gates, all comparing rows of one run, so they bind on any core count:
//  (a) reexec, replay and the reference report the same unique-bug set;
//  (b) every reexec row starts one execution per lane (executions ==
//      workers), not one per check;
//  (c) reexec and replay at --jobs 1 each take at most a tenth of the
//      reference's inject time.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/fault_injection.h"

namespace mumak {
namespace {

constexpr double kMinSpeedupOverReference = 10.0;

struct Row {
  std::string target;
  std::string strategy;
  uint32_t workers = 0;
  uint64_t failure_points = 0;
  uint64_t injections = 0;
  uint64_t executions = 0;  // workload executions in the inject phase
  uint64_t bugs = 0;
  double inject_s = 0;
  double injections_per_s = 0;
  size_t replay_trace_bytes = 0;
  std::set<std::string> bug_details;
};

Row MakeRow(const std::string& target, const std::string& strategy,
            uint32_t workers, const FaultInjectionStats& stats,
            const Report& report, double inject_s) {
  Row row;
  row.target = target;
  row.strategy = strategy;
  row.workers = workers;
  row.failure_points = stats.failure_points;
  row.injections = stats.injections;
  row.executions = stats.executions;
  row.bugs = report.BugCount();
  row.inject_s = inject_s;
  row.injections_per_s =
      inject_s > 0 ? static_cast<double>(stats.injections) / inject_s : 0;
  row.replay_trace_bytes = stats.replay_trace_bytes;
  for (const Finding& f : report.findings()) {
    row.bug_details.insert(f.detail);
  }
  return row;
}

Row RunOne(const std::string& target, const TargetOptions& options,
           const WorkloadSpec& spec, InjectionStrategy strategy,
           uint32_t workers) {
  FaultInjectionOptions fi;
  fi.strategy = strategy;
  fi.workers = workers;
  FaultInjectionEngine engine(MakeFactory(target, options), spec, fi);
  FailurePointTree tree = engine.Profile();
  FaultInjectionStats stats;
  const Report report = engine.InjectAll(&tree, &stats);
  return MakeRow(target,
                 strategy == InjectionStrategy::kReplay ? "replay" : "reexec",
                 workers, stats, report, stats.elapsed_s);
}

Row RunReference(const std::string& target, const TargetOptions& options,
                 const WorkloadSpec& spec) {
  const TargetFactory factory = MakeFactory(target, options);
  FaultInjectionEngine profiler(factory, spec);
  FailurePointTree tree = profiler.Profile();
  FaultInjectionStats stats;
  const auto start = std::chrono::steady_clock::now();
  const Report report = ReferenceInjectAll(factory, spec, &tree, &stats);
  const double inject_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  return MakeRow(target, "reference", 1, stats, report, inject_s);
}

void EmitJson(const std::vector<Row>& rows, double reexec_speedup,
              double replay_speedup, bool reports_match,
              bool one_execution_per_lane, unsigned cores) {
  std::ofstream out("BENCH_injection.json", std::ios::trunc);
  out << "{\n  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char buffer[512];
    std::snprintf(
        buffer, sizeof(buffer),
        "    {\"target\": \"%s\", \"strategy\": \"%s\", \"workers\": %u, "
        "\"failure_points\": %llu, \"injections\": %llu, "
        "\"executions\": %llu, \"bugs\": %llu, \"inject_s\": %.4f, "
        "\"injections_per_s\": %.1f, \"replay_trace_bytes\": %zu}%s\n",
        r.target.c_str(), r.strategy.c_str(), r.workers,
        static_cast<unsigned long long>(r.failure_points),
        static_cast<unsigned long long>(r.injections),
        static_cast<unsigned long long>(r.executions),
        static_cast<unsigned long long>(r.bugs), r.inject_s,
        r.injections_per_s, r.replay_trace_bytes,
        i + 1 < rows.size() ? "," : "");
    out << buffer;
  }
  char tail[256];
  std::snprintf(tail, sizeof(tail),
                "  ],\n  \"reexec_vs_reference_jobs1\": %.2f,\n"
                "  \"replay_vs_reference_jobs1\": %.2f,\n"
                "  \"unique_bug_reports_match\": %s,\n"
                "  \"reexec_one_execution_per_lane\": %s,\n"
                "  \"host_cores\": %u\n}\n",
                reexec_speedup, replay_speedup,
                reports_match ? "true" : "false",
                one_execution_per_lane ? "true" : "false", cores);
  out << tail;
}

void PrintRow(const Row& row) {
  std::printf("%-9s %6u %8llu %8llu %8llu %6llu %10.4f %12.1f %14zu\n",
              row.strategy.c_str(), row.workers,
              static_cast<unsigned long long>(row.failure_points),
              static_cast<unsigned long long>(row.injections),
              static_cast<unsigned long long>(row.executions),
              static_cast<unsigned long long>(row.bugs), row.inject_s,
              row.injections_per_s, row.replay_trace_bytes);
  std::fflush(stdout);
}

}  // namespace
}  // namespace mumak

int main() {
  using namespace mumak;
  // A seeded bug keeps the oracle path (and dedup) on the measured path.
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  options.bugs = {"btree.split_unlogged"};
  // The reference pays O(workload) per check; both pipeline sources pay it
  // once per lane at most, so the gap widens with workload length. Measure
  // at a CI-realistic size.
  WorkloadSpec spec = EvaluationWorkload(6000, /*spt=*/true);
  spec.key_space = 300;

  std::printf("=== injection throughput (btree, %llu ops) ===\n",
              static_cast<unsigned long long>(spec.operations));
  std::printf("%-9s %6s %8s %8s %8s %6s %10s %12s %14s\n", "strategy",
              "jobs", "points", "inject", "execs", "bugs", "inject(s)",
              "inject/s", "trace bytes");

  const Row reference = RunReference("btree", options, spec);
  PrintRow(reference);
  std::vector<Row> rows = {reference};
  double reexec_s_jobs1 = 0, replay_s_jobs1 = 0;
  bool reports_match = true;
  bool one_execution_per_lane = true;
  for (const uint32_t workers : {1u, 2u, 4u}) {
    for (const InjectionStrategy strategy :
         {InjectionStrategy::kReExecute, InjectionStrategy::kReplay}) {
      const Row row = RunOne("btree", options, spec, strategy, workers);
      PrintRow(row);
      reports_match &= row.bug_details == reference.bug_details;
      if (strategy == InjectionStrategy::kReExecute) {
        one_execution_per_lane &= row.executions == workers;
      }
      if (workers == 1) {
        (strategy == InjectionStrategy::kReExecute ? reexec_s_jobs1
                                                   : replay_s_jobs1) =
            row.inject_s;
      }
      rows.push_back(row);
    }
  }

  const double reexec_speedup =
      reexec_s_jobs1 > 0 ? reference.inject_s / reexec_s_jobs1 : 0;
  const double replay_speedup =
      replay_s_jobs1 > 0 ? reference.inject_s / replay_s_jobs1 : 0;
  const bool fast_enough = reexec_speedup >= kMinSpeedupOverReference &&
                           replay_speedup >= kMinSpeedupOverReference;
  std::printf("\nunique-bug reports match the reference loop: %s\n",
              reports_match ? "yes" : "NO — equivalence violated");
  std::printf("re-execute starts one execution per lane: %s\n",
              one_execution_per_lane ? "yes" : "NO");
  std::printf("reference vs re-execute at --jobs 1: %.2fx faster "
              "(acceptance: >= %.0fx)\n",
              reexec_speedup, kMinSpeedupOverReference);
  std::printf("reference vs replay at --jobs 1: %.2fx faster "
              "(acceptance: >= %.0fx)\n",
              replay_speedup, kMinSpeedupOverReference);
  EmitJson(rows, reexec_speedup, replay_speedup, reports_match,
           one_execution_per_lane, HostCores());
  std::printf("BENCH_injection.json written\n");
  return reports_match && one_execution_per_lane && fast_enough ? 0 : 1;
}
