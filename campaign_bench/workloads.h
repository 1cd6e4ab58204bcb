// The campaign benchmark's workloads. Each is one Mumak campaign over the
// btree registry target with the same seeded bugs; the workload seed is the
// only input that varies between runs and it reaches the program solely
// through WorkloadSpec::seed.

#ifndef CAMPAIGN_BENCH_WORKLOADS_H_
#define CAMPAIGN_BENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/mumak.h"

namespace campaign_bench {

// The target every workload runs, and the seeded bugs it enables.
inline constexpr char kTarget[] = "btree";
const std::vector<std::string>& SeededBugs();

struct BenchWorkload {
  std::string name;
  uint64_t operations = 0;
  mumak::InjectionStrategy strategy = mumak::InjectionStrategy::kReExecute;
  uint32_t fleet_workers = 0;
};

const std::vector<BenchWorkload>& AllWorkloads();

// Throws std::invalid_argument for an unknown name.
const BenchWorkload& FindWorkload(std::string_view name);

// Creates the target with SeededBugs() enabled, undecorated.
mumak::TargetFactory MakeTargetFactory();
mumak::WorkloadSpec MakeSpec(const BenchWorkload& workload, uint64_t seed);

// Options of the campaign itself: the CLI defaults plus the workload's
// strategy and fleet size. Observability hooks stay null.
mumak::MumakOptions MakeCampaignOptions(const BenchWorkload& workload);

// The paper's serial re-execution loop for the same spec: one worker, no
// image dedup, no fleet. Every fast path must reproduce its report.
mumak::MumakOptions MakeReferenceOptions();

}  // namespace campaign_bench

#endif  // CAMPAIGN_BENCH_WORKLOADS_H_
