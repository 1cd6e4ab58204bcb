// Adaptive injection scheduler: ranked and budgeted campaigns measured on
// the flush-heavy log (acceptance: ranking keeps the exhaustive
// distinct-bug set, and a budget stop dispatches at most the budgeted
// number of checks). Emits BENCH_adaptive.json. Every config runs with
// image dedup on, as campaigns do by default; bench_dedup measures the
// checks dedup skips.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/flush_heavy_target.h"
#include "src/core/fault_injection.h"

namespace mumak {
namespace {

struct Row {
  std::string config;
  uint64_t failure_points = 0;
  uint64_t checks = 0;        // dispatched checks
  uint64_t bugs = 0;
  bool budget_stopped = false;
  double inject_s = 0;
  double verdicts_per_s = 0;  // distinct verdicts delivered per second
  std::set<std::string> bug_details;
};

Row RunOne(const std::string& config, const WorkloadSpec& spec,
           bool rank, uint64_t budget_checks) {
  FaultInjectionOptions fi;
  fi.strategy = InjectionStrategy::kReplay;
  fi.workers = 4;
  fi.rank = rank;
  fi.budget_checks = budget_checks;
  FaultInjectionEngine engine(
      [] { return std::make_unique<FlushHeavyTarget>(); }, spec, fi);
  FailurePointTree tree = engine.Profile();
  FaultInjectionStats stats;
  const Report report = engine.InjectAll(&tree, &stats);

  Row row;
  row.config = config;
  row.failure_points = stats.failure_points;
  row.checks = stats.injections;
  row.bugs = report.BugCount();
  row.budget_stopped = stats.budget_stopped;
  row.inject_s = stats.elapsed_s;
  row.verdicts_per_s =
      stats.elapsed_s > 0
          ? static_cast<double>(stats.injections) / stats.elapsed_s
          : 0;
  for (const Finding& f : report.findings()) {
    row.bug_details.insert(f.detail);
  }
  return row;
}

void EmitJson(const std::vector<Row>& rows, bool reports_match,
              bool budget_respected, unsigned host_cores) {
  std::ofstream out("BENCH_adaptive.json", std::ios::trunc);
  out << "{\n  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char buffer[512];
    std::snprintf(
        buffer, sizeof(buffer),
        "    {\"config\": \"%s\", \"failure_points\": %llu, "
        "\"checks\": %llu, \"bugs\": %llu, "
        "\"budget_stopped\": %s, \"inject_s\": %.4f, "
        "\"verdicts_per_s\": %.1f}%s\n",
        r.config.c_str(),
        static_cast<unsigned long long>(r.failure_points),
        static_cast<unsigned long long>(r.checks),
        static_cast<unsigned long long>(r.bugs),
        r.budget_stopped ? "true" : "false", r.inject_s, r.verdicts_per_s,
        i + 1 < rows.size() ? "," : "");
    out << buffer;
  }
  char tail[160];
  std::snprintf(tail, sizeof(tail),
                "  ],\n  \"host_cores\": %u,\n"
                "  \"budget_respected\": %s,\n"
                "  \"unique_bug_reports_match\": %s\n}\n",
                host_cores, budget_respected ? "true" : "false",
                reports_match ? "true" : "false");
  out << tail;
}

}  // namespace
}  // namespace mumak

int main() {
  using namespace mumak;
  WorkloadSpec spec;
  spec.operations = 360;
  spec.key_space = 360;
  spec.put_pct = 100;
  spec.get_pct = 0;
  spec.delete_pct = 0;

  std::printf(
      "=== adaptive scheduler (flush-heavy log, replay, --jobs 4) ===\n");
  std::printf("%-12s %8s %8s %6s %7s %10s %11s\n", "config", "points",
              "checks", "bugs", "budget", "inject(s)", "verdicts/s");
  std::vector<Row> rows;
  auto run = [&](const std::string& config, bool rank, uint64_t budget) {
    const Row row = RunOne(config, spec, rank, budget);
    std::printf("%-12s %8llu %8llu %6llu %7s %10.4f %11.1f\n",
                row.config.c_str(),
                static_cast<unsigned long long>(row.failure_points),
                static_cast<unsigned long long>(row.checks),
                static_cast<unsigned long long>(row.bugs),
                row.budget_stopped ? "stopped" : "-", row.inject_s,
                row.verdicts_per_s);
    std::fflush(stdout);
    rows.push_back(row);
    return rows.back();
  };

  const Row exhaustive = run("exhaustive", false, 0);
  const Row ranked = run("rank", true, 0);
  // Budget at half the exhaustive campaign's check count, so the stop
  // genuinely triggers mid-campaign: dispatch must halt at or under it.
  const uint64_t budget = exhaustive.checks / 2;
  const Row budgeted = run("budget-half", false, budget);

  const bool reports_match = exhaustive.bug_details == ranked.bug_details;
  const bool budget_respected =
      budgeted.budget_stopped && budgeted.checks <= budget;

  std::printf("\nbudget of %llu check(s): dispatched %llu, %s\n",
              static_cast<unsigned long long>(budget),
              static_cast<unsigned long long>(budgeted.checks),
              budget_respected ? "stopped within budget"
                               : "BUDGET OVERRUN");
  std::printf("unique-bug reports match exhaustive vs ranked: %s\n",
              reports_match ? "yes" : "NO — ranking changed the findings");
  EmitJson(rows, reports_match, budget_respected, HostCores());
  std::printf("BENCH_adaptive.json written\n");
  return reports_match && budget_respected ? 0 : 1;
}
