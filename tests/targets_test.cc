// Generic conformance tests over every registered target:
//  - functional correctness against a reference map (via recovery + count)
//  - recovery succeeds on clean runs and on every graceful crash prefix
//  - fault injection reports nothing on a bug-free target (the paper's
//    no-false-positives property, §6.2)
//  - every seeded bug in the registry is detected by Mumak, except the
//    beyond-program-order ones, which must at least produce a warning,
//    and none of them breaks a crash-free run of the workload
//  - one execution per campaign: finding locations and the Table 2 RAM
//    multiplier equal what the re-executions they replaced produced

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/core/coverage.h"
#include "src/core/fault_injection.h"
#include "src/core/mumak.h"
#include "src/targets/bug_registry.h"
#include "src/targets/target.h"

namespace mumak {
namespace {

class TargetConformanceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(TargetConformanceTest, CleanRunRecovers) {
  const std::string name = GetParam();
  TargetOptions options = CoverageOptions(name);
  TargetPtr target = CreateTarget(name, options);
  ASSERT_NE(target, nullptr);
  PmPool pool(target->DefaultPoolSize());
  WorkloadSpec spec = CoverageWorkload(name, 600);
  FaultInjectionEngine::ExecuteWorkload(*target, pool, spec);

  PmPool recovered = PmPool::FromImage(pool.GracefulImage());
  TargetPtr fresh = CreateTarget(name, options);
  EXPECT_NO_THROW(fresh->Recover(recovered));
}

TEST_P(TargetConformanceTest, CleanFaultInjectionIsSilent) {
  const std::string name = GetParam();
  TargetOptions options = CoverageOptions(name);
  WorkloadSpec spec = CoverageWorkload(name, 300);
  FaultInjectionEngine engine(
      [name, options] { return CreateTarget(name, options); }, spec);
  FaultInjectionStats stats;
  Report report = engine.Run(&stats);
  EXPECT_EQ(report.BugCount(), 0u)
      << name << " false positives:\n"
      << report.Render();
  EXPECT_GT(stats.failure_points, 5u);
}

TEST_P(TargetConformanceTest, CleanTraceAnalysisIsSilent) {
  // The trace-analysis patterns must report no *bugs* on bug-free targets
  // (warnings — multi-store flushes, multi-flush fences — are allowed;
  // they flag layout- and ordering-dependent situations, §4.2).
  const std::string name = GetParam();
  TargetOptions options = CoverageOptions(name);
  WorkloadSpec spec = CoverageWorkload(name, 300);
  MumakOptions mumak_options;
  mumak_options.fault_injection = false;
  Mumak mumak([name, options] { return CreateTarget(name, options); }, spec,
              mumak_options);
  MumakResult result = mumak.Analyze();
  EXPECT_EQ(result.report.BugCount(), 0u)
      << name << " trace-analysis noise:\n"
      << result.report.Render();
}

TEST_P(TargetConformanceTest, BatchedTransactionsAlsoRecover) {
  const std::string name = GetParam();
  TargetOptions options = CoverageOptions(name);
  options.single_put_per_tx = false;
  options.tx_batch = 64;
  TargetPtr target = CreateTarget(name, options);
  PmPool pool(target->DefaultPoolSize());
  WorkloadSpec spec = CoverageWorkload(name, 600);
  FaultInjectionEngine::ExecuteWorkload(*target, pool, spec);
  PmPool recovered = PmPool::FromImage(pool.GracefulImage());
  TargetPtr fresh = CreateTarget(name, options);
  EXPECT_NO_THROW(fresh->Recover(recovered));
}

INSTANTIATE_TEST_SUITE_P(AllTargets, TargetConformanceTest,
                         ::testing::ValuesIn(AllTargetNames()),
                         [](const auto& info) { return info.param; });

// -- Seeded bug corpus -------------------------------------------------------

class SeededBugTest : public ::testing::TestWithParam<SeededBug> {};

TEST_P(SeededBugTest, MumakDetectsSeededBug) {
  const SeededBug& bug = GetParam();
  MumakResult result = RunMumakOnSeededBug(bug, 450);
  if (bug.beyond_program_order) {
    // By design outside the guarantees: Mumak must at least warn (never
    // stay silent), but full detection is not required.
    EXPECT_GT(result.report.findings().size(), 0u) << bug.id;
    return;
  }
  EXPECT_TRUE(DetectedBy(bug, result.report))
      << bug.id << " (" << BugClassName(bug.bug_class) << ") not detected:\n"
      << result.report.Render();
}

TEST_P(SeededBugTest, FaultInjectionStaysPreciseUnderSeeding) {
  // Performance bugs must not trick fault injection into reporting a
  // correctness bug (no false positives, §6.2).
  const SeededBug& bug = GetParam();
  if (IsCorrectnessClass(bug.bug_class)) {
    GTEST_SKIP() << "correctness bug: fault-injection findings expected";
  }
  MumakResult result = RunMumakOnSeededBug(bug, 300);
  for (const Finding& f : result.report.findings()) {
    EXPECT_NE(f.source, FindingSource::kFaultInjection)
        << bug.id << " caused a spurious fault-injection finding";
  }
}

TEST_P(SeededBugTest, WorkloadRunsToCompletionWithoutInjection) {
  // A seeded bug may break crash consistency, never a crash-free run: the
  // CLI's default workload at 2000 ops must run to completion with the bug
  // on and nothing injected.
  const SeededBug& bug = GetParam();
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  options.bugs = {bug.id};
  TargetPtr target = CreateTarget(bug.target, options);
  ASSERT_NE(target, nullptr);
  PmPool pool(target->DefaultPoolSize());
  WorkloadSpec spec;
  spec.operations = 2000;
  EXPECT_NO_THROW(FaultInjectionEngine::ExecuteWorkload(*target, pool, spec));
}

std::string BugTestName(const ::testing::TestParamInfo<SeededBug>& info) {
  std::string name = info.param.id;
  for (char& c : name) {
    if (c == '.' || c == '-') {
      c = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Corpus, SeededBugTest,
                         ::testing::ValuesIn(AllSeededBugs()), BugTestName);

// -- One execution per campaign ----------------------------------------------

// Counts Setup calls: each one is a workload execution.
class CountingTarget : public Target {
 public:
  CountingTarget(TargetPtr inner, int* setups)
      : inner_(std::move(inner)), setups_(setups) {}
  std::string_view name() const override { return inner_->name(); }
  uint64_t DefaultPoolSize() const override {
    return inner_->DefaultPoolSize();
  }
  void Setup(PmPool& pool) override {
    ++*setups_;
    inner_->Setup(pool);
  }
  void Execute(PmPool& pool, const Op& op) override {
    inner_->Execute(pool, op);
  }
  void Finish(PmPool& pool) override { inner_->Finish(pool); }
  void Recover(PmPool& pool) override { inner_->Recover(pool); }
  uint64_t CodeSizeStatements() const override {
    return inner_->CodeSizeStatements();
  }

 private:
  TargetPtr inner_;
  int* setups_;
};

// The sinks of the two executions Analyze() no longer runs, kept as
// references: the backtrace re-execution's BacktraceSink ("<site> <-
// <stack>" at the wanted seqs) and the vanilla baseline's FootprintSampler
// (every 1024th event; the caller samples once more at the end). Sinks
// never touch the model, so both ride one reference execution.
class BacktraceSink : public EventSink {
 public:
  explicit BacktraceSink(std::set<uint64_t> wanted)
      : wanted_(std::move(wanted)) {}

  void OnEvent(const PmEvent& event) override {
    if (!wanted_.contains(event.seq)) {
      return;
    }
    const std::string stack = ShadowCallStack::Current().Describe();
    const std::string site = FrameRegistry::Global().Describe(event.site);
    backtraces.emplace(event.seq,
                       stack.empty() ? site : site + " <- " + stack);
  }

  std::map<uint64_t, std::string> backtraces;

 private:
  std::set<uint64_t> wanted_;
};

class FootprintSampler : public EventSink {
 public:
  explicit FootprintSampler(const PmPool* pool) : pool_(pool) {}

  void OnEvent(const PmEvent& event) override {
    if ((event.seq & 0x3ff) == 0) {
      peak.Sample(pool_->model().VolatileFootprintBytes());
    }
  }

  PeakMemoryTracker peak;

 private:
  const PmPool* pool_;
};

class OneExecutionTest : public ::testing::TestWithParam<std::string> {};

TEST_P(OneExecutionTest, LocationsAndRamMultiplierMatchTheReExecutions) {
  const std::string name = GetParam();
  TargetOptions options = CoverageOptions(name);
  // Seed the first bug of a class the trace analysis catches, if any.
  for (const SeededBug& bug : SeededBugsForTarget(name)) {
    if ((!IsCorrectnessClass(bug.bug_class) ||
         bug.bug_class == BugClass::kDurability) &&
        !bug.beyond_program_order) {
      options.bugs.insert(bug.id);
      break;
    }
  }
  const WorkloadSpec spec = CoverageWorkload(name, 300);
  int setups = 0;
  const TargetFactory factory = [&] {
    return std::make_unique<CountingTarget>(CreateTarget(name, options),
                                            &setups);
  };
  MumakOptions mumak_options;
  mumak_options.fault_injection = false;
  const MumakResult result = Mumak(factory, spec, mumak_options).Analyze();
  EXPECT_EQ(setups, 1) << "Analyze() executed the workload more than once";
  ASSERT_FALSE(result.report.findings().empty());

  std::set<uint64_t> wanted;
  for (const Finding& finding : result.report.findings()) {
    wanted.insert(finding.seq);
  }
  TargetPtr target = factory();
  PmPool pool(target->DefaultPoolSize());
  BacktraceSink backtraces(wanted);
  FootprintSampler footprint(&pool);
  {
    ScopedSink attach_backtraces(pool.hub(), &backtraces);
    ScopedSink attach_footprint(pool.hub(), &footprint);
    FaultInjectionEngine::ExecuteWorkload(*target, pool, spec);
  }
  footprint.peak.Sample(pool.model().VolatileFootprintBytes());

  for (const Finding& finding : result.report.findings()) {
    ASSERT_EQ(finding.source, FindingSource::kTraceAnalysis);
    ASSERT_TRUE(backtraces.backtraces.contains(finding.seq)) << finding.seq;
    EXPECT_EQ(finding.location, backtraces.backtraces.at(finding.seq));
  }
  const size_t baseline = footprint.peak.peak() + (64u << 10);
  EXPECT_EQ(result.resources.ram_multiplier,
            static_cast<double>(baseline + result.resources.tool_bytes) /
                static_cast<double>(baseline));
}

INSTANTIATE_TEST_SUITE_P(AllTargets, OneExecutionTest,
                         ::testing::ValuesIn(AllTargetNames()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace mumak
