#include "src/core/injection_schedule.h"

#include <algorithm>

namespace mumak {
namespace {

// Cumulative store counts at each summary boundary, so interval queries
// over arbitrary schedule subsets are O(log n) lookups.
struct PrefixSums {
  std::vector<uint64_t> seqs;    // summary boundaries, ascending
  std::vector<uint64_t> stores;  // cumulative stores through seq

  explicit PrefixSums(const std::vector<EpochSummary>& summaries) {
    seqs.reserve(summaries.size());
    stores.reserve(summaries.size());
    uint64_t store_total = 0;
    for (const EpochSummary& summary : summaries) {
      store_total += summary.stores;
      seqs.push_back(summary.seq);
      stores.push_back(store_total);
    }
  }

  // Index of the boundary at exactly `seq`; npos when the summaries do not
  // cover it (then the point gets no density evidence).
  static constexpr size_t kNotFound = ~size_t{0};
  size_t Find(uint64_t seq) const {
    const auto it = std::lower_bound(seqs.begin(), seqs.end(), seq);
    if (it == seqs.end() || *it != seq) {
      return kNotFound;
    }
    return static_cast<size_t>(it - seqs.begin());
  }

  // Stores in `(lo_seq, hi_index's seq]` where lo_seq is a prior schedule
  // seq (or 0 for the schedule head).
  uint64_t StoresBetween(uint64_t lo_seq, size_t hi_index) const {
    uint64_t lo_total = 0;
    if (lo_seq > 0) {
      const auto it = std::upper_bound(seqs.begin(), seqs.end(), lo_seq);
      if (it != seqs.begin()) {
        lo_total = stores[static_cast<size_t>(it - seqs.begin()) - 1];
      }
    }
    return stores[hi_index] - lo_total;
  }
};

}  // namespace

InjectionPlan BuildInjectionPlan(const std::vector<ReplayPoint>& schedule,
                                 const std::vector<EpochSummary>& summaries,
                                 const InjectionPlanOptions& options) {
  InjectionPlan plan;
  if (schedule.empty()) {
    return plan;
  }
  const PrefixSums sums(summaries);

  // Ranking evidence per check, over its span: the interval since the
  // previous schedule point, through this one.
  plan.checks.reserve(schedule.size());
  uint64_t lo = 0;
  for (const ReplayPoint& point : schedule) {
    PlannedCheck check;
    check.point = point;
    const size_t hi_index = sums.Find(point.seq);
    if (hi_index != PrefixSums::kNotFound) {
      check.span_stores = sums.StoresBetween(lo, hi_index);
    }
    if (options.findings != nullptr && options.findings->AnyIn(lo, point.seq)) {
      check.finding_hit = true;
      ++plan.finding_hits;
    }
    plan.checks.push_back(check);
    lo = point.seq;
  }

  if (options.rank && plan.checks.size() > 1) {
    std::stable_sort(plan.checks.begin(), plan.checks.end(),
                     [](const PlannedCheck& a, const PlannedCheck& b) {
                       if (a.finding_hit != b.finding_hit) {
                         return a.finding_hit;  // detector hits first
                       }
                       if (a.span_stores != b.span_stores) {
                         return a.span_stores > b.span_stores;
                       }
                       return a.point.seq < b.point.seq;
                     });
  }
  return plan;
}

}  // namespace mumak
