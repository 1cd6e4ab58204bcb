// Content-addressed verdict deduplication: wall-clock and checks-skipped
// measurements on a flush-heavy workload (acceptance: >= 50% of checks
// skipped and >= 1.5x injection-phase speedup over no-dedup at --jobs 4, a
// warm --verdict-cache second run with a near-total skip ratio, and
// identical unique findings with dedup on and off). Emits BENCH_dedup.json.
//
// The workload is the dedup-friendly extreme that real PM code approaches
// wherever it over-flushes (the "performance bug" classes of Table 3):
// every operation persists one novel 8-byte record, then re-flushes the
// same line several more times. Each redundant flush+fence is a failure
// point — there was a store since the previous one — but its graceful
// crash image is byte-identical to its predecessor's, so only the novel
// prefix of each operation ever needs the recovery oracle.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
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
  uint64_t injections = 0;
  uint64_t distinct_images = 0;
  uint64_t dedup_hits = 0;
  uint64_t cache_loaded = 0;
  uint64_t bugs = 0;
  double inject_s = 0;
  std::set<std::string> bug_details;
};

Row RunOne(const std::string& config, const WorkloadSpec& spec,
           bool image_dedup, const std::string& cache_path) {
  FaultInjectionOptions fi;
  fi.strategy = InjectionStrategy::kReplay;
  fi.workers = 4;
  fi.image_dedup = image_dedup;
  fi.verdict_cache_path = cache_path;
  FaultInjectionEngine engine([] { return std::make_unique<FlushHeavyTarget>(); },
                              spec, fi);
  FailurePointTree tree = engine.Profile();
  FaultInjectionStats stats;
  const Report report = engine.InjectAll(&tree, &stats);

  Row row;
  row.config = config;
  row.injections = stats.injections;
  row.distinct_images = stats.distinct_images;
  row.dedup_hits = stats.dedup_hits;
  row.cache_loaded = stats.cache_loaded;
  row.bugs = report.BugCount();
  row.inject_s = stats.elapsed_s;
  for (const Finding& f : report.findings()) {
    row.bug_details.insert(f.detail);
  }
  return row;
}

void EmitJson(const std::vector<Row>& rows, double checks_skipped_ratio,
              double speedup, double warm_skip_ratio, bool reports_match,
              unsigned host_cores, bool gate_evaluated) {
  std::ofstream out("BENCH_dedup.json", std::ios::trunc);
  out << "{\n  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char buffer[512];
    std::snprintf(
        buffer, sizeof(buffer),
        "    {\"config\": \"%s\", \"injections\": %llu, "
        "\"distinct_images\": %llu, \"dedup_hits\": %llu, "
        "\"cache_loaded\": %llu, \"bugs\": %llu, \"inject_s\": %.4f}%s\n",
        r.config.c_str(), static_cast<unsigned long long>(r.injections),
        static_cast<unsigned long long>(r.distinct_images),
        static_cast<unsigned long long>(r.dedup_hits),
        static_cast<unsigned long long>(r.cache_loaded),
        static_cast<unsigned long long>(r.bugs), r.inject_s,
        i + 1 < rows.size() ? "," : "");
    out << buffer;
  }
  char tail[320];
  std::snprintf(tail, sizeof(tail),
                "  ],\n  \"checks_skipped_ratio\": %.4f,\n"
                "  \"speedup_jobs4\": %.2f,\n"
                "  \"warm_skip_ratio\": %.4f,\n"
                "  \"host_cores\": %u,\n"
                "  \"speedup_gate_evaluated\": %s,\n"
                "  \"unique_bug_reports_match\": %s\n}\n",
                checks_skipped_ratio, speedup, warm_skip_ratio, host_cores,
                gate_evaluated ? "true" : "false",
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

  const std::string cache_path = "BENCH_dedup.cache.tmp";
  std::remove(cache_path.c_str());

  std::printf("=== image-dedup speedup (flush-heavy log, --jobs 4) ===\n");
  std::printf("%-12s %9s %9s %9s %8s %6s %10s\n", "config", "inject",
              "distinct", "dedup", "loaded", "bugs", "inject(s)");
  std::vector<Row> rows;
  auto print = [&](const Row& row) {
    std::printf("%-12s %9llu %9llu %9llu %8llu %6llu %10.4f\n",
                row.config.c_str(),
                static_cast<unsigned long long>(row.injections),
                static_cast<unsigned long long>(row.distinct_images),
                static_cast<unsigned long long>(row.dedup_hits),
                static_cast<unsigned long long>(row.cache_loaded),
                static_cast<unsigned long long>(row.bugs), row.inject_s);
    std::fflush(stdout);
    rows.push_back(row);
  };

  // An injection phase here takes tens of milliseconds, so one campaign
  // per side measures host noise as much as dedup: the speedup compares
  // the median inject time of kPairs alternating dedup-off/dedup-on runs
  // (the rows show the last run's counts with those medians).
  constexpr size_t kPairs = 5;
  std::vector<double> off_s;
  std::vector<double> on_s;
  Row off;
  Row on;
  for (size_t i = 0; i < kPairs; ++i) {
    off = RunOne("dedup-off", spec, false, "");
    on = RunOne("dedup-on", spec, true, "");
    off_s.push_back(off.inject_s);
    on_s.push_back(on.inject_s);
  }
  const auto median = [](std::vector<double> samples) {
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
  };
  off.inject_s = median(off_s);
  on.inject_s = median(on_s);
  print(off);
  print(on);
  const Row cold = RunOne("cache-cold", spec, true, cache_path);
  print(cold);
  const Row warm = RunOne("cache-warm", spec, true, cache_path);
  print(warm);
  std::remove(cache_path.c_str());

  const double skipped =
      on.injections > 0
          ? static_cast<double>(on.dedup_hits) / on.injections
          : 0;
  const double speedup = on.inject_s > 0 ? off.inject_s / on.inject_s : 0;
  const double warm_skip =
      warm.injections > 0
          ? static_cast<double>(warm.dedup_hits) / warm.injections
          : 0;
  const bool reports_match =
      off.bug_details == on.bug_details && off.bug_details == cold.bug_details;

  const unsigned cores = HostCores();
  const bool gate = SpeedupGateBinds(cores);
  std::printf("\ndedup-on vs dedup-off at --jobs 4: %.2fx wall clock "
              "(acceptance: >= 1.5x%s)\n",
              speedup, gate ? "" : "; gate waived — too few cores");
  if (!gate) {
    std::printf("host has %u core(s) (< %u): the --jobs 4 speedup gate "
                "records but does not bind\n",
                cores, kSpeedupGateMinCores);
  }
  std::printf("checks skipped: %llu of %llu (%.1f%%; acceptance: >= 50%%)\n",
              static_cast<unsigned long long>(on.dedup_hits),
              static_cast<unsigned long long>(on.injections),
              100.0 * skipped);
  std::printf("warm --verdict-cache run: %.1f%% of verdicts from cache "
              "(acceptance: near-total)\n",
              100.0 * warm_skip);
  std::printf("unique-bug reports match with dedup on/off: %s\n",
              reports_match ? "yes" : "NO — dedup changed the findings");
  EmitJson(rows, skipped, speedup, warm_skip, reports_match, cores, gate);
  std::printf("BENCH_dedup.json written\n");
  return reports_match && skipped >= 0.5 && warm_skip >= 0.95 &&
                 (!gate || speedup >= 1.5)
             ? 0
             : 1;
}
