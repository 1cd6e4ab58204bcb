// Adaptive injection schedule planner. The injection phase's cost model is
// oracle invocations: every failure point synthesizes a graceful crash
// image and runs recovery on it. Image dedup (src/core/verdict_cache.h)
// skips the oracle on images already checked; this planner decides the
// order checks dispatch in:
//
//  - Detector-guided ranking: checks whose span contains a durability /
//    transient-data finding dispatch first (bugs concentrate at flagged
//    sites), then by epoch store density, then by seq — a total
//    deterministic order.
//  - The plan is the unit budgeted campaigns count: `--budget-checks N`
//    stops dispatch after N planned checks.

#ifndef MUMAK_SRC_CORE_INJECTION_SCHEDULE_H_
#define MUMAK_SRC_CORE_INJECTION_SCHEDULE_H_

#include <cstdint>
#include <vector>

#include "src/analysis/seq_finding_index.h"
#include "src/core/fault_injection.h"
#include "src/pmem/replay_cursor.h"

namespace mumak {

// One dispatched check: a schedule point plus its ranking evidence.
struct PlannedCheck {
  ReplayPoint point;
  // Ranking evidence, populated when epoch summaries are available.
  bool finding_hit = false;  // a detector finding falls in the check's span
  uint64_t span_stores = 0;  // stores in (previous point's seq, point.seq]
};

struct InjectionPlanOptions {
  bool rank = false;
  // Detector hits for ranking; borrowed, may be null (rank then degrades
  // to store-density + seq order).
  const SeqFindingIndex* findings = nullptr;
};

struct InjectionPlan {
  std::vector<PlannedCheck> checks;  // in dispatch order
  uint64_t finding_hits = 0;         // checks boosted by a detector hit
};

// Plans the seq-sorted `schedule`: one check per point. `summaries` are the
// per-epoch store counts over *all* profiled failure points (a superset of
// any schedule — resume may have removed points), ascending by seq; empty
// disables density ranking.
InjectionPlan BuildInjectionPlan(const std::vector<ReplayPoint>& schedule,
                                 const std::vector<EpochSummary>& summaries,
                                 const InjectionPlanOptions& options);

}  // namespace mumak

#endif  // MUMAK_SRC_CORE_INJECTION_SCHEDULE_H_
