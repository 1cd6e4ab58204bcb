// The traced run: the benchmark makes the public calls Mumak::Analyze()
// makes, in the same order and with the same analysis/injection overlap,
// each wrapped in a span, followed by unit-cost probes of the pmem layer.

#ifndef CAMPAIGN_BENCH_TRACED_CAMPAIGN_H_
#define CAMPAIGN_BENCH_TRACED_CAMPAIGN_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "probes.h"
#include "workloads.h"

namespace campaign_bench {

struct TracedOutcome {
  mumak::Report report;
  mumak::FaultInjectionStats stats;
  uint64_t events = 0;
  double campaign_s = 0;
  double setup_s = 0;
  std::vector<Span> spans;
  // Self time per span id (see SelfTimes).
  std::map<int, double> self_s;
  // Per-layer metrics by their BENCHMARK.json name.
  std::map<std::string, double> layers;
};

// Runs one traced campaign. The trace spools to `spool_path`, which is
// removed before returning.
TracedOutcome RunTracedCampaign(const BenchWorkload& workload, uint64_t seed,
                                const std::string& spool_path);

}  // namespace campaign_bench

#endif  // CAMPAIGN_BENCH_TRACED_CAMPAIGN_H_
