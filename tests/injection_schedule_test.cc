// Unit tests for the adaptive injection planner: epoch summarisation
// (silent-store detection against the replayed image), equivalence-class
// formation, detector-guided ranking, and the partition/identity
// invariants the byte-identical-report guarantee rests on.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/seq_finding_index.h"
#include "src/core/injection_schedule.h"
#include "src/pmem/replay_cursor.h"

namespace mumak {
namespace {

constexpr size_t kPool = 64;

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
//   (0, 3]: one novel store            -> changed
//   (3, 5]: one silent re-store        -> unchanged
//   (5, 7]: one novel store            -> changed
//   (7, 9]: no events at all           -> empty epoch
TraceStream FixtureTrace() {
  TraceStreamWriter trace(/*with_payloads=*/true, /*block_events=*/2);
  AddStore(&trace, 1, 0, 0xAAAA);
  AddFence(&trace, 3);
  AddStore(&trace, 4, 0, 0xAAAA);  // same bytes: silent
  AddFence(&trace, 5);
  AddStore(&trace, 6, 0, 0xBBBB);
  AddFence(&trace, 7);
  return trace.Finish();
}

const std::vector<uint64_t> kBoundaries = {3, 5, 7, 9};

std::vector<ReplayPoint> FixtureSchedule() {
  return {{0, 3}, {1, 5}, {2, 7}, {3, 9}};
}

TEST(SummarizeEpochs, CountsStoresAndDetectsSilentOnes) {
  const TraceStream trace = FixtureTrace();
  const auto epochs = SummarizeEpochs(trace, kPool, kBoundaries);
  ASSERT_EQ(epochs.size(), 4u);
  EXPECT_EQ(epochs[0].seq, 3u);
  EXPECT_EQ(epochs[0].stores, 1u);
  EXPECT_EQ(epochs[0].changed_stores, 1u);
  // The re-store writes back bytes already in the image.
  EXPECT_EQ(epochs[1].seq, 5u);
  EXPECT_EQ(epochs[1].stores, 1u);
  EXPECT_EQ(epochs[1].changed_stores, 0u);
  EXPECT_EQ(epochs[2].changed_stores, 1u);
  // An empty epoch (boundary with no intervening events) is silent too.
  EXPECT_EQ(epochs[3].seq, 9u);
  EXPECT_EQ(epochs[3].stores, 0u);
  EXPECT_EQ(epochs[3].changed_stores, 0u);
}

TEST(SummarizeEpochs, StoreToFreshOffsetIsAlwaysChanged) {
  TraceStreamWriter trace(/*with_payloads=*/true, /*block_events=*/2);
  AddStore(&trace, 1, 8, 0);  // value 0 onto a zeroed image: still counted
  AddFence(&trace, 2);
  AddStore(&trace, 3, 16, 7);
  AddFence(&trace, 4);
  const auto epochs = SummarizeEpochs(trace.Finish(), kPool, {2, 4});
  ASSERT_EQ(epochs.size(), 2u);
  // Writing zeros over a zeroed image does not change it.
  EXPECT_EQ(epochs[0].changed_stores, 0u);
  EXPECT_EQ(epochs[1].changed_stores, 1u);
}

TEST(InjectionPlan, BothOptionsOffIsTheIdentity) {
  const TraceStream trace = FixtureTrace();
  const auto epochs = SummarizeEpochs(trace, kPool, kBoundaries);
  const auto schedule = FixtureSchedule();
  const InjectionPlan plan =
      BuildInjectionPlan(schedule, epochs, InjectionPlanOptions{});
  ASSERT_EQ(plan.checks.size(), schedule.size());
  EXPECT_EQ(plan.pruned, 0u);
  EXPECT_TRUE(plan.seq_ordered);
  for (size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_EQ(plan.checks[i].point.seq, schedule[i].seq);
    EXPECT_TRUE(plan.checks[i].classmates.empty());
  }
}

TEST(InjectionPlan, SilentSpansCollapseToRepresentatives) {
  const TraceStream trace = FixtureTrace();
  const auto epochs = SummarizeEpochs(trace, kPool, kBoundaries);
  InjectionPlanOptions options;
  options.prune_equiv = true;
  const InjectionPlan plan =
      BuildInjectionPlan(FixtureSchedule(), epochs, options);
  // {3,5} share an image (the (3,5] epoch is silent); {7,9} likewise.
  ASSERT_EQ(plan.checks.size(), 2u);
  EXPECT_EQ(plan.scheduled, 4u);
  EXPECT_EQ(plan.pruned, 2u);
  EXPECT_TRUE(plan.seq_ordered);
  EXPECT_EQ(plan.checks[0].point.seq, 3u);
  ASSERT_EQ(plan.checks[0].classmates.size(), 1u);
  EXPECT_EQ(plan.checks[0].classmates[0].seq, 5u);
  EXPECT_EQ(plan.checks[1].point.seq, 7u);
  ASSERT_EQ(plan.checks[1].classmates.size(), 1u);
  EXPECT_EQ(plan.checks[1].classmates[0].seq, 9u);
}

// Every schedule point appears exactly once in the plan, and each class
// representative is its class's earliest member — the two facts the
// byte-identical-report argument needs.
TEST(InjectionPlan, PruningPartitionsTheSchedule) {
  const TraceStream trace = FixtureTrace();
  const auto epochs = SummarizeEpochs(trace, kPool, kBoundaries);
  InjectionPlanOptions options;
  options.prune_equiv = true;
  const InjectionPlan plan =
      BuildInjectionPlan(FixtureSchedule(), epochs, options);
  std::set<uint64_t> seen;
  for (const PlannedCheck& check : plan.checks) {
    EXPECT_TRUE(seen.insert(check.point.seq).second);
    for (const ReplayPoint& mate : check.classmates) {
      EXPECT_TRUE(seen.insert(mate.seq).second);
      EXPECT_GT(mate.seq, check.point.seq);
    }
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(InjectionPlan, FindingHitsDispatchFirst) {
  const TraceStream trace = FixtureTrace();
  const auto epochs = SummarizeEpochs(trace, kPool, kBoundaries);
  SeqFindingIndex findings;
  findings.seqs = {6};  // inside the (5, 7] span of the second class
  InjectionPlanOptions options;
  options.prune_equiv = true;
  options.rank = true;
  options.findings = &findings;
  const InjectionPlan plan =
      BuildInjectionPlan(FixtureSchedule(), epochs, options);
  ASSERT_EQ(plan.checks.size(), 2u);
  EXPECT_EQ(plan.finding_hits, 1u);
  EXPECT_FALSE(plan.seq_ordered);
  EXPECT_EQ(plan.checks[0].point.seq, 7u);
  EXPECT_TRUE(plan.checks[0].finding_hit);
  EXPECT_EQ(plan.checks[1].point.seq, 3u);
  EXPECT_FALSE(plan.checks[1].finding_hit);
}

TEST(InjectionPlan, DensityRanksWithoutFindings) {
  // Two epochs: the second carries three novel stores, the first one.
  TraceStreamWriter trace(/*with_payloads=*/true, /*block_events=*/2);
  AddStore(&trace, 1, 0, 1);
  AddFence(&trace, 2);
  AddStore(&trace, 3, 8, 2);
  AddStore(&trace, 4, 16, 3);
  AddStore(&trace, 5, 24, 4);
  AddFence(&trace, 6);
  const auto epochs = SummarizeEpochs(trace.Finish(), kPool, {2, 6});
  InjectionPlanOptions options;
  options.rank = true;
  const InjectionPlan plan =
      BuildInjectionPlan({{0, 2}, {1, 6}}, epochs, options);
  ASSERT_EQ(plan.checks.size(), 2u);
  EXPECT_FALSE(plan.seq_ordered);
  EXPECT_EQ(plan.checks[0].point.seq, 6u);
  EXPECT_EQ(plan.checks[0].span_stores, 3u);
  EXPECT_EQ(plan.checks[1].point.seq, 2u);
  EXPECT_EQ(plan.checks[1].span_stores, 1u);
}

TEST(InjectionPlan, EmptySummariesDisablePruning) {
  InjectionPlanOptions options;
  options.prune_equiv = true;
  const InjectionPlan plan =
      BuildInjectionPlan(FixtureSchedule(), {}, options);
  EXPECT_EQ(plan.checks.size(), 4u);
  EXPECT_EQ(plan.pruned, 0u);
  EXPECT_TRUE(plan.seq_ordered);
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

TEST(PrunedByProvenanceTest, MirrorsDedupFormat) {
  EXPECT_EQ(PrunedByProvenance(42),
            "equivalence class checked at seq 42");
}

}  // namespace
}  // namespace mumak
