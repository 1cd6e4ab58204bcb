// Property tests of the trace analyzer (§4.2): a randomized clean trace is
// generated (must produce zero findings), then exactly one instance of a
// misuse pattern is planted at a random position with a recognisable site —
// the analyzer must report exactly that pattern at that site and nothing
// else. This pins both directions at once: no false positives on clean
// traffic, no false negatives on each pattern, regardless of surrounding
// noise.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/analysis/trace_analysis.h"
#include "src/instrument/deterministic_random.h"
#include "src/instrument/pm_event.h"
#include "src/instrument/shadow_call_stack.h"
#include "src/pmem/persistency_model.h"

namespace mumak {
namespace {

class TraceBuilder {
 public:
  explicit TraceBuilder(uint64_t seed) : rng_(seed) {
    clean_site_ = FrameRegistry::Global().Intern("trace_prop_clean",
                                                 "clean.cc", 1);
    planted_site_ = FrameRegistry::Global().Intern("trace_prop_planted",
                                                   "planted.cc", 1);
  }

  // One clean record: a fresh line gets one 8-byte store, a write-back,
  // and a fence. Produces no findings under the §4.2 patterns (single
  // store per flush, single flush per fence, everything persisted).
  void AppendCleanRecord() {
    const uint64_t line = next_line_++;
    Push(EventKind::kStore, line * kCacheLineSize, 8, clean_site_);
    Push(EventKind::kClwb, line * kCacheLineSize, kCacheLineSize,
         clean_site_);
    Push(EventKind::kSfence, 0, 0, clean_site_);
  }

  void AppendCleanRecords(size_t count) {
    for (size_t i = 0; i < count; ++i) {
      AppendCleanRecord();
    }
  }

  // -- Planted patterns, each at planted_site_ ------------------------------

  void PlantUnflushedStore() {
    // The line is flushed once (so the address is demonstrably meant to be
    // persistent), then a second store to it is never persisted: a
    // durability bug, not a warning.
    const uint64_t line = next_line_++;
    Push(EventKind::kStore, line * kCacheLineSize, 8, clean_site_);
    Push(EventKind::kClwb, line * kCacheLineSize, kCacheLineSize,
         clean_site_);
    Push(EventKind::kSfence, 0, 0, clean_site_);
    Push(EventKind::kStore, line * kCacheLineSize + 8, 8, planted_site_);
  }

  void PlantTransientData() {
    // A store to a line that is never flushed anywhere: §4.2 reports this
    // as a transient-data warning (the data may be intentionally volatile).
    const uint64_t line = next_line_++;
    Push(EventKind::kStore, line * kCacheLineSize, 8, planted_site_);
  }

  void PlantRedundantFlush() {
    // Write-back of a line with no dirty data.
    const uint64_t line = next_line_++;
    Push(EventKind::kClwb, line * kCacheLineSize, kCacheLineSize,
         planted_site_);
    Push(EventKind::kSfence, 0, 0, clean_site_);
  }

  void PlantRedundantFence() {
    Push(EventKind::kSfence, 0, 0, planted_site_);
  }

  void PlantMultiStoreFlush() {
    const uint64_t line = next_line_++;
    Push(EventKind::kStore, line * kCacheLineSize, 8, clean_site_);
    Push(EventKind::kStore, line * kCacheLineSize + 16, 8, clean_site_);
    Push(EventKind::kClwb, line * kCacheLineSize, kCacheLineSize,
         planted_site_);
    Push(EventKind::kSfence, 0, 0, clean_site_);
  }

  void PlantMultiFlushFence() {
    const uint64_t line_a = next_line_++;
    const uint64_t line_b = next_line_++;
    Push(EventKind::kStore, line_a * kCacheLineSize, 8, clean_site_);
    Push(EventKind::kStore, line_b * kCacheLineSize, 8, clean_site_);
    Push(EventKind::kClwb, line_a * kCacheLineSize, kCacheLineSize,
         clean_site_);
    Push(EventKind::kClwb, line_b * kCacheLineSize, kCacheLineSize,
         clean_site_);
    Push(EventKind::kSfence, 0, 0, planted_site_);
  }

  void PlantDirtyOverwrite() {
    const uint64_t line = next_line_++;
    Push(EventKind::kStore, line * kCacheLineSize, 8, clean_site_);
    Push(EventKind::kStore, line * kCacheLineSize, 8, planted_site_);
    Push(EventKind::kClwb, line * kCacheLineSize, kCacheLineSize,
         clean_site_);
    Push(EventKind::kSfence, 0, 0, clean_site_);
  }

  const std::vector<PmEvent>& events() const { return events_; }
  uint64_t NextBelow(uint64_t bound) { return rng_.NextBelow(bound); }

 private:
  void Push(EventKind kind, uint64_t offset, uint32_t size, FrameId site) {
    PmEvent event;
    event.kind = kind;
    event.offset = offset;
    event.size = size;
    event.site = site;
    event.seq = seq_++;
    events_.push_back(event);
  }

  DeterministicRandom rng_;
  std::vector<PmEvent> events_;
  FrameId clean_site_ = kInvalidFrame;
  FrameId planted_site_ = kInvalidFrame;
  uint64_t next_line_ = 0;
  uint64_t seq_ = 0;
};

Report Analyze(const std::vector<PmEvent>& events,
               TraceAnalysisOptions options = {}) {
  TraceAnalyzer analyzer(options);
  TraceStats stats;
  return analyzer.Analyze(events, &stats);
}

class TraceProperty : public ::testing::TestWithParam<uint64_t> {
 protected:
  // Runs one plant-a-pattern experiment: random clean records before and
  // after the planted block, then asserts the single expected finding.
  template <typename PlantFn>
  void CheckSingleFinding(PlantFn plant, FindingKind expected,
                          TraceAnalysisOptions options = {}) {
    TraceBuilder builder(GetParam());
    builder.AppendCleanRecords(5 + builder.NextBelow(40));
    plant(builder);
    builder.AppendCleanRecords(5 + builder.NextBelow(40));
    const Report report = Analyze(builder.events(), options);
    ASSERT_EQ(report.findings().size(), 1u) << report.Render();
    const Finding& finding = report.findings()[0];
    EXPECT_EQ(finding.kind, expected) << report.Render();
    EXPECT_NE(finding.location.find("trace_prop_planted"), std::string::npos)
        << finding.location;
  }
};

TEST_P(TraceProperty, CleanTraceHasNoFindings) {
  TraceBuilder builder(GetParam());
  builder.AppendCleanRecords(10 + builder.NextBelow(90));
  TraceAnalysisOptions strict;
  strict.report_dirty_overwrites = true;  // clean even under the opt-in
  const Report report = Analyze(builder.events(), strict);
  EXPECT_EQ(report.findings().size(), 0u) << report.Render();
}

TEST_P(TraceProperty, PlantedUnflushedStoreIsTheOnlyFinding) {
  CheckSingleFinding([](TraceBuilder& b) { b.PlantUnflushedStore(); },
                     FindingKind::kUnflushedStore);
}

TEST_P(TraceProperty, PlantedTransientDataIsTheOnlyFinding) {
  CheckSingleFinding([](TraceBuilder& b) { b.PlantTransientData(); },
                     FindingKind::kTransientData);
}

TEST_P(TraceProperty, PlantedRedundantFlushIsTheOnlyFinding) {
  CheckSingleFinding([](TraceBuilder& b) { b.PlantRedundantFlush(); },
                     FindingKind::kRedundantFlush);
}

TEST_P(TraceProperty, PlantedRedundantFenceIsTheOnlyFinding) {
  CheckSingleFinding([](TraceBuilder& b) { b.PlantRedundantFence(); },
                     FindingKind::kRedundantFence);
}

TEST_P(TraceProperty, PlantedMultiStoreFlushIsTheOnlyFinding) {
  CheckSingleFinding([](TraceBuilder& b) { b.PlantMultiStoreFlush(); },
                     FindingKind::kMultiStoreFlush);
}

TEST_P(TraceProperty, PlantedMultiFlushFenceIsTheOnlyFinding) {
  CheckSingleFinding([](TraceBuilder& b) { b.PlantMultiFlushFence(); },
                     FindingKind::kMultiFlushFence);
}

TEST_P(TraceProperty, PlantedDirtyOverwriteRequiresTheOptIn) {
  // Two stores to one granule before the flush necessarily also trigger
  // the multi-store-flush warning (one flush covers both stores), so the
  // overwrite block always carries that warning alongside; the overwrite
  // finding itself must appear only under the opt-in.
  auto build = [this] {
    TraceBuilder builder(GetParam());
    builder.AppendCleanRecords(5 + builder.NextBelow(20));
    builder.PlantDirtyOverwrite();
    builder.AppendCleanRecords(5 + builder.NextBelow(20));
    return builder;
  };
  {
    const TraceBuilder builder = build();
    const Report report = Analyze(builder.events());
    ASSERT_EQ(report.findings().size(), 1u) << report.Render();
    EXPECT_EQ(report.findings()[0].kind, FindingKind::kMultiStoreFlush);
  }
  TraceAnalysisOptions opt_in;
  opt_in.report_dirty_overwrites = true;
  const TraceBuilder builder = build();
  const Report report = Analyze(builder.events(), opt_in);
  size_t overwrites = 0;
  for (const Finding& finding : report.findings()) {
    if (finding.kind == FindingKind::kDirtyOverwrite) {
      ++overwrites;
      EXPECT_NE(finding.location.find("trace_prop_planted"),
                std::string::npos)
          << finding.location;
    } else {
      EXPECT_EQ(finding.kind, FindingKind::kMultiStoreFlush);
    }
  }
  EXPECT_EQ(overwrites, 1u) << report.Render();
}

TEST_P(TraceProperty, RepeatedPatternAtOneSiteIsReportedOnce) {
  // Dedup by (pattern, site): planting the same pattern N times from the
  // same call site must still yield one finding (Table 3's "each root
  // cause reported exactly once").
  TraceBuilder builder(GetParam());
  builder.AppendCleanRecords(5);
  const size_t plants = 2 + builder.NextBelow(5);
  for (size_t i = 0; i < plants; ++i) {
    builder.PlantRedundantFence();
    builder.AppendCleanRecords(1 + builder.NextBelow(4));
  }
  const Report report = Analyze(builder.events());
  ASSERT_EQ(report.findings().size(), 1u) << report.Render();
  EXPECT_EQ(report.findings()[0].kind, FindingKind::kRedundantFence);
}

TEST_P(TraceProperty, EveryPatternAtOnceIsFullyReported) {
  // All six patterns planted into one noisy trace: six findings, one per
  // (pattern, site) pair.
  TraceAnalysisOptions opt_in;
  opt_in.report_dirty_overwrites = true;
  TraceBuilder builder(GetParam());
  builder.AppendCleanRecords(3 + builder.NextBelow(10));
  builder.PlantUnflushedStore();
  builder.AppendCleanRecords(1 + builder.NextBelow(5));
  builder.PlantRedundantFlush();
  builder.AppendCleanRecords(1 + builder.NextBelow(5));
  builder.PlantRedundantFence();
  builder.AppendCleanRecords(1 + builder.NextBelow(5));
  builder.PlantMultiStoreFlush();
  builder.AppendCleanRecords(1 + builder.NextBelow(5));
  builder.PlantMultiFlushFence();
  builder.AppendCleanRecords(1 + builder.NextBelow(5));
  builder.PlantDirtyOverwrite();
  builder.AppendCleanRecords(1 + builder.NextBelow(5));
  const Report report = Analyze(builder.events(), opt_in);
  // Six planted patterns plus the multi-store-flush warning the overwrite
  // block's own flush necessarily carries (distinct flush site, so it is
  // not deduplicated against the planted multi-store-flush).
  EXPECT_EQ(report.findings().size(), 7u) << report.Render();
}

TEST_P(TraceProperty, EadrModeInvertsTheCleanTrace) {
  // The ADR-clean trace flushes every line; under eADR each of those
  // write-backs is overhead. One flush site ⇒ one deduplicated finding.
  TraceBuilder builder(GetParam());
  builder.AppendCleanRecords(10 + builder.NextBelow(30));
  TraceAnalysisOptions eadr;
  eadr.eadr_mode = true;
  const Report report = Analyze(builder.events(), eadr);
  ASSERT_EQ(report.findings().size(), 1u) << report.Render();
  EXPECT_EQ(report.findings()[0].kind, FindingKind::kRedundantFlush);
  // And the never-flushed transient pattern does not exist under eADR.
  TraceBuilder transient(GetParam() ^ 0xffull);
  transient.AppendCleanRecords(3);
  transient.PlantTransientData();
  const Report eadr_report = Analyze(transient.events(), eadr);
  for (const Finding& finding : eadr_report.findings()) {
    EXPECT_NE(finding.kind, FindingKind::kTransientData);
    EXPECT_NE(finding.kind, FindingKind::kUnflushedStore);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceProperty,
                         ::testing::Values(3u, 7u, 31u, 127u, 8191u,
                                           131071u, 524287u));

}  // namespace
}  // namespace mumak
