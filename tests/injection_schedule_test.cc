// Unit tests for the adaptive injection planner: per-epoch store counts,
// the unranked plan's identity with the schedule, and detector-guided
// ranking.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/analysis/seq_finding_index.h"
#include "src/core/injection_schedule.h"
#include "src/pmem/replay_cursor.h"

namespace mumak {
namespace {

// Appends a payload-carrying 8-byte store at `seq` writing `value` to
// `offset`.
void AddStore(TraceStreamWriter* trace, uint64_t seq, uint64_t offset,
              uint64_t value) {
  PmEvent ev;
  ev.kind = EventKind::kStore;
  ev.seq = seq;
  ev.offset = offset;
  ev.size = sizeof(value);
  ev.payload = reinterpret_cast<const uint8_t*>(&value);
  trace->OnEvent(ev);
}

void AddFence(TraceStreamWriter* trace, uint64_t seq) {
  PmEvent ev;
  ev.kind = EventKind::kSfence;
  ev.seq = seq;
  trace->OnEvent(ev);
}

// A fixed fixture trace: four epochs ending at seqs 3, 5, 7 and 9.
//   (0, 3]: one store and a fence
//   (3, 5]: one store and a fence
//   (5, 7]: one store and a fence
//   (7, 9]: no events at all
TraceStream FixtureTrace() {
  TraceStreamWriter trace(/*with_payloads=*/true, /*block_events=*/2);
  AddStore(&trace, 1, 0, 0xAAAA);
  AddFence(&trace, 3);
  AddStore(&trace, 4, 0, 0xAAAA);
  AddFence(&trace, 5);
  AddStore(&trace, 6, 0, 0xBBBB);
  AddFence(&trace, 7);
  return trace.Finish();
}

const std::vector<uint64_t> kBoundaries = {3, 5, 7, 9};

std::vector<ReplayPoint> FixtureSchedule() {
  return {{0, 3}, {1, 5}, {2, 7}, {3, 9}};
}

TEST(SummarizeEpochs, CountsStoresPerEpoch) {
  const TraceStream trace = FixtureTrace();
  const auto epochs = SummarizeEpochs(trace, kBoundaries);
  ASSERT_EQ(epochs.size(), 4u);
  EXPECT_EQ(epochs[0].seq, 3u);
  EXPECT_EQ(epochs[0].stores, 1u);
  EXPECT_EQ(epochs[1].seq, 5u);
  EXPECT_EQ(epochs[1].stores, 1u);
  EXPECT_EQ(epochs[2].seq, 7u);
  EXPECT_EQ(epochs[2].stores, 1u);
  // An empty epoch (boundary with no intervening events) counts none.
  EXPECT_EQ(epochs[3].seq, 9u);
  EXPECT_EQ(epochs[3].stores, 0u);
}

TEST(InjectionPlan, UnrankedPlanIsTheSchedule) {
  const TraceStream trace = FixtureTrace();
  const auto epochs = SummarizeEpochs(trace, kBoundaries);
  const auto schedule = FixtureSchedule();
  const InjectionPlan plan =
      BuildInjectionPlan(schedule, epochs, InjectionPlanOptions{});
  ASSERT_EQ(plan.checks.size(), schedule.size());
  for (size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_EQ(plan.checks[i].point.seq, schedule[i].seq);
  }
}

TEST(InjectionPlan, FindingHitsDispatchFirst) {
  const TraceStream trace = FixtureTrace();
  const auto epochs = SummarizeEpochs(trace, kBoundaries);
  SeqFindingIndex findings;
  findings.seqs = {6};  // inside the (5, 7] span of the third check
  InjectionPlanOptions options;
  options.rank = true;
  options.findings = &findings;
  const InjectionPlan plan =
      BuildInjectionPlan(FixtureSchedule(), epochs, options);
  ASSERT_EQ(plan.checks.size(), 4u);
  EXPECT_EQ(plan.finding_hits, 1u);
  EXPECT_EQ(plan.checks[0].point.seq, 7u);
  EXPECT_TRUE(plan.checks[0].finding_hit);
  // The rest by store density, then seq: (0,3] and (3,5] hold one store
  // each, (7,9] none.
  EXPECT_EQ(plan.checks[1].point.seq, 3u);
  EXPECT_FALSE(plan.checks[1].finding_hit);
  EXPECT_EQ(plan.checks[2].point.seq, 5u);
  EXPECT_EQ(plan.checks[3].point.seq, 9u);
}

TEST(InjectionPlan, DensityRanksWithoutFindings) {
  // Two epochs: the second carries three stores, the first one.
  TraceStreamWriter trace(/*with_payloads=*/true, /*block_events=*/2);
  AddStore(&trace, 1, 0, 1);
  AddFence(&trace, 2);
  AddStore(&trace, 3, 8, 2);
  AddStore(&trace, 4, 16, 3);
  AddStore(&trace, 5, 24, 4);
  AddFence(&trace, 6);
  const auto epochs = SummarizeEpochs(trace.Finish(), {2, 6});
  InjectionPlanOptions options;
  options.rank = true;
  const InjectionPlan plan =
      BuildInjectionPlan({{0, 2}, {1, 6}}, epochs, options);
  ASSERT_EQ(plan.checks.size(), 2u);
  EXPECT_EQ(plan.checks[0].point.seq, 6u);
  EXPECT_EQ(plan.checks[0].span_stores, 3u);
  EXPECT_EQ(plan.checks[1].point.seq, 2u);
  EXPECT_EQ(plan.checks[1].span_stores, 1u);
}

TEST(SeqFindingIndexTest, AnyInIsExclusiveLoInclusiveHi) {
  SeqFindingIndex index;
  index.seqs = {5, 10};
  EXPECT_TRUE(index.AnyIn(4, 5));
  EXPECT_FALSE(index.AnyIn(5, 9));
  EXPECT_TRUE(index.AnyIn(9, 10));
  EXPECT_FALSE(index.AnyIn(10, 20));
  EXPECT_FALSE(SeqFindingIndex{}.AnyIn(0, ~0ull));
}

}  // namespace
}  // namespace mumak
