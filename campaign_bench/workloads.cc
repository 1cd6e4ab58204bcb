#include "workloads.h"

#include <stdexcept>

#include "src/targets/target.h"

namespace campaign_bench {
namespace {

std::vector<BenchWorkload> BuildWorkloads() {
  using mumak::InjectionStrategy;
  std::vector<BenchWorkload> all;
  // Failure points saturate with btree size (about 230 at 6k ops, 310 at
  // 20k) while trace events grow linearly, so the operation count sizes
  // setup and synthesis without multiplying checks.
  all.push_back({"btree-reexec-serial", 6000, InjectionStrategy::kReExecute,
                 0});
  all.push_back({"btree-fleet-2p", 20000, InjectionStrategy::kReplay, 2});
  return all;
}

}  // namespace

const std::vector<std::string>& SeededBugs() {
  // The btree atomicity bugs (found by the recovery oracle) plus one bug of
  // each performance class (found by the trace analysis).
  static const std::vector<std::string> bugs = {
      "btree.split_unlogged", "btree.merge_unlogged", "btree.count_unlogged",
      "btree.rf_split",       "btree.rfence_put",     "btree.transient_stats",
  };
  return bugs;
}

const std::vector<BenchWorkload>& AllWorkloads() {
  static const std::vector<BenchWorkload> workloads = BuildWorkloads();
  return workloads;
}

const BenchWorkload& FindWorkload(std::string_view name) {
  for (const BenchWorkload& workload : AllWorkloads()) {
    if (workload.name == name) {
      return workload;
    }
  }
  throw std::invalid_argument("unknown workload: " + std::string(name));
}

mumak::TargetFactory MakeTargetFactory() {
  mumak::TargetOptions options;
  options.pmdk_version = mumak::PmdkVersion::k16;
  options.bugs.insert(SeededBugs().begin(), SeededBugs().end());
  return [options] { return mumak::CreateTarget(kTarget, options); };
}

mumak::WorkloadSpec MakeSpec(const BenchWorkload& workload, uint64_t seed) {
  mumak::WorkloadSpec spec;
  spec.operations = workload.operations;
  spec.seed = seed;
  spec.distribution = mumak::KeyDistribution::kUniform;
  spec.put_pct = 34;
  spec.get_pct = 33;
  spec.delete_pct = 33;
  return spec;
}

mumak::MumakOptions MakeCampaignOptions(const BenchWorkload& workload) {
  mumak::MumakOptions options;
  options.injection_strategy = workload.strategy;
  options.fleet.workers = workload.fleet_workers;
  return options;
}

mumak::MumakOptions MakeReferenceOptions() {
  mumak::MumakOptions options;
  options.injection_strategy = mumak::InjectionStrategy::kReExecute;
  options.injection_workers = 1;
  options.image_dedup = false;
  return options;
}

}  // namespace campaign_bench
