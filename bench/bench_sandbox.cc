// Sandbox overhead: replay-strategy injection throughput with the
// recovery oracle in-process vs in the fork-server worker pool (and, for
// context, under strict isolation: a fresh worker per check). Prints a
// table across worker counts and emits BENCH_sandbox.json; the headline
// number is the fork-server/in-process injections/sec ratio on btree at
// --jobs 4 (gate: the fork-server pool regresses < 15%, i.e. ratio
// >= 0.85).
//
// Also cross-checks the transparency contract while measuring: the
// sandboxed oracle must report the same unique-bug set as the in-process
// one on a target whose recovery is well-behaved.

#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/fault_injection.h"
#include "src/sandbox/options.h"

namespace mumak {
namespace {

// How the oracle runs in one row.
struct Mode {
  const char* name;
  SandboxPolicy policy;
  uint32_t checks_per_fork;
};

constexpr Mode kInProcess{"inproc", SandboxPolicy::kInProcess, 0};
constexpr Mode kForkServer{"forkserver", SandboxPolicy::kForkServer, 256};
constexpr Mode kStrict{"strict", SandboxPolicy::kForkServer, 1};

struct Row {
  std::string sandbox;
  uint32_t workers = 0;
  uint64_t failure_points = 0;
  uint64_t injections = 0;
  uint64_t bugs = 0;
  double inject_s = 0;
  double injections_per_s = 0;
  std::set<std::string> bug_details;
};

Row RunOne(const TargetOptions& options, const WorkloadSpec& spec,
           const Mode& mode, uint32_t workers) {
  FaultInjectionOptions fi;
  fi.strategy = InjectionStrategy::kReplay;
  fi.workers = workers;
  fi.sandbox.policy = mode.policy;
  fi.sandbox.checks_per_fork = mode.checks_per_fork;
  FaultInjectionEngine engine(MakeFactory("btree", options), spec, fi);
  FailurePointTree tree = engine.Profile();
  FaultInjectionStats stats;
  const Report report = engine.InjectAll(&tree, &stats);

  Row row;
  row.sandbox = mode.name;
  row.workers = workers;
  row.failure_points = stats.failure_points;
  row.injections = stats.injections;
  row.bugs = report.BugCount();
  row.inject_s = stats.elapsed_s;
  row.injections_per_s =
      stats.elapsed_s > 0
          ? static_cast<double>(stats.injections) / stats.elapsed_s
          : 0;
  for (const Finding& f : report.findings()) {
    row.bug_details.insert(f.detail);
  }
  return row;
}

void EmitJson(const std::vector<Row>& rows, double forkserver_ratio_jobs4,
              double strict_ratio_jobs4, bool reports_match,
              unsigned host_cores, bool gate_evaluated) {
  std::ofstream out("BENCH_sandbox.json", std::ios::trunc);
  out << "{\n  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char buffer[384];
    std::snprintf(
        buffer, sizeof(buffer),
        "    {\"target\": \"btree\", \"strategy\": \"replay\", "
        "\"sandbox\": \"%s\", \"workers\": %u, \"failure_points\": %llu, "
        "\"injections\": %llu, \"bugs\": %llu, \"inject_s\": %.4f, "
        "\"injections_per_s\": %.1f}%s\n",
        r.sandbox.c_str(), r.workers,
        static_cast<unsigned long long>(r.failure_points),
        static_cast<unsigned long long>(r.injections),
        static_cast<unsigned long long>(r.bugs), r.inject_s,
        r.injections_per_s, i + 1 < rows.size() ? "," : "");
    out << buffer;
  }
  char tail[304];
  std::snprintf(tail, sizeof(tail),
                "  ],\n  \"forkserver_vs_inproc_jobs4\": %.3f,\n"
                "  \"strict_vs_inproc_jobs4\": %.3f,\n"
                "  \"host_cores\": %u,\n"
                "  \"speedup_gate_evaluated\": %s,\n"
                "  \"unique_bug_reports_match\": %s\n}\n",
                forkserver_ratio_jobs4, strict_ratio_jobs4, host_cores,
                gate_evaluated ? "true" : "false",
                reports_match ? "true" : "false");
  out << tail;
}

}  // namespace
}  // namespace mumak

int main() {
  using namespace mumak;
  // A seeded bug keeps the oracle path (and dedup) on the measured path —
  // the overhead being measured is exactly the per-check IPC + process
  // cost layered on the recovery oracle.
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  options.bugs = {"btree.split_unlogged"};
  WorkloadSpec spec = EvaluationWorkload(20000, /*spt=*/true);
  spec.key_space = 2000;

  std::printf("=== sandbox overhead, replay strategy (btree, %llu ops) ===\n",
              static_cast<unsigned long long>(spec.operations));
  std::printf("%-10s %6s %8s %8s %6s %10s %12s\n", "sandbox", "jobs",
              "points", "inject", "bugs", "inject(s)", "inject/s");

  std::vector<Row> rows;
  double inproc_jobs4 = 0, strict_jobs4 = 0, forkserver_jobs4 = 0;
  std::set<std::string> inproc_bugs, forkserver_bugs;
  for (const uint32_t workers : {1u, 4u}) {
    for (const Mode* mode : {&kInProcess, &kStrict, &kForkServer}) {
      const Row row = RunOne(options, spec, *mode, workers);
      std::printf("%-10s %6u %8llu %8llu %6llu %10.4f %12.1f\n",
                  row.sandbox.c_str(), row.workers,
                  static_cast<unsigned long long>(row.failure_points),
                  static_cast<unsigned long long>(row.injections),
                  static_cast<unsigned long long>(row.bugs), row.inject_s,
                  row.injections_per_s);
      std::fflush(stdout);
      if (workers == 4) {
        if (mode == &kInProcess) {
          inproc_jobs4 = row.injections_per_s;
          inproc_bugs = row.bug_details;
        } else if (mode == &kStrict) {
          strict_jobs4 = row.injections_per_s;
        } else {
          forkserver_jobs4 = row.injections_per_s;
          forkserver_bugs = row.bug_details;
        }
      }
      rows.push_back(row);
    }
  }

  const double forkserver_ratio =
      inproc_jobs4 > 0 ? forkserver_jobs4 / inproc_jobs4 : 0;
  const double strict_ratio =
      inproc_jobs4 > 0 ? strict_jobs4 / inproc_jobs4 : 0;
  const bool reports_match = inproc_bugs == forkserver_bugs;
  const unsigned cores = HostCores();
  const bool gate = SpeedupGateBinds(cores);
  std::printf("\nfork-server vs in-process at --jobs 4: %.3fx injections/sec "
              "(acceptance: >= 0.85%s)\n",
              forkserver_ratio, gate ? "" : "; gate waived — too few cores");
  if (!gate) {
    std::printf("host has %u core(s) (< %u): the --jobs 4 throughput gate "
                "records but does not bind\n",
                cores, kSpeedupGateMinCores);
  }
  std::printf("strict isolation (--checks-per-fork 1) vs in-process at "
              "--jobs 4: %.3fx\n",
              strict_ratio);
  std::printf("unique-bug reports match in-process vs fork-server: %s\n",
              reports_match ? "yes" : "NO — transparency violated");
  EmitJson(rows, forkserver_ratio, strict_ratio, reports_match, cores, gate);
  std::printf("BENCH_sandbox.json written\n");
  return reports_match && (!gate || forkserver_ratio >= 0.85) ? 0 : 1;
}
