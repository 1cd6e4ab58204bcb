// Every registered target, clean and with its correctness-class seeded bugs
// on: re-execution injection (one paused workload execution per lane) must
// render the report of the paper's loop as written (ReferenceInjectAll, one
// restarted execution per failure point) byte for byte at one and at four
// lanes, start exactly one execution per lane, and leave no target alive
// once InjectAll returns, budget stops included. Replay injection (one
// cursor per lane) must render the same report at one and four lanes, and
// in ranked order at four lanes over small trace blocks, where each lane's
// cursor steps backwards through checkpoints of its own. One ctest entry
// per case.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/coverage.h"
#include "src/core/fault_injection.h"
#include "src/targets/bug_registry.h"
#include "src/targets/target.h"

namespace mumak {
namespace {

// Counts the targets alive: an execution that was never unwound keeps its
// target, and the count, above zero.
class CountedTarget : public Target {
 public:
  CountedTarget(TargetPtr inner, std::atomic<int>* live)
      : inner_(std::move(inner)), live_(live) {
    ++*live_;
  }
  ~CountedTarget() override { --*live_; }

  std::string_view name() const override { return inner_->name(); }
  uint64_t DefaultPoolSize() const override {
    return inner_->DefaultPoolSize();
  }
  void Setup(PmPool& pool) override { inner_->Setup(pool); }
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
  std::atomic<int>* live_;
};

std::set<std::string> CorrectnessBugs(const std::string& target) {
  std::set<std::string> bugs;
  for (const SeededBug& bug : SeededBugsForTarget(target)) {
    if (IsCorrectnessClass(bug.bug_class)) {
      bugs.insert(bug.id);
    }
  }
  return bugs;
}

struct Case {
  std::string target;
  bool seeded = false;  // every correctness-class seeded bug on
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << c.target << (c.seeded ? " seeded" : " clean");
}

TargetOptions CaseOptions(const Case& c) {
  TargetOptions options = CoverageOptions(c.target);
  if (c.seeded) {
    options.bugs = CorrectnessBugs(c.target);
  }
  return options;
}

class ReExecutionEquivalenceTest : public ::testing::TestWithParam<Case> {};

TEST_P(ReExecutionEquivalenceTest, MatchesTheReferenceLoopAtEveryLaneCount) {
  const Case& c = GetParam();
  const TargetOptions options = CaseOptions(c);
  const WorkloadSpec spec = CoverageWorkload(c.target, 300);
  std::atomic<int> live{0};
  const TargetFactory factory = [&] {
    return std::make_unique<CountedTarget>(CreateTarget(c.target, options),
                                           &live);
  };

  FaultInjectionEngine profiler(factory, spec);
  FailurePointTree reference_tree = profiler.Profile();
  FaultInjectionStats reference_stats;
  const Report reference =
      ReferenceInjectAll(factory, spec, &reference_tree, &reference_stats);
  ASSERT_EQ(live.load(), 0);

  for (const uint32_t workers : {1u, 4u}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    FaultInjectionOptions fi;
    fi.strategy = InjectionStrategy::kReExecute;
    fi.workers = workers;
    {
      FaultInjectionEngine engine(factory, spec, fi);
      FailurePointTree tree = engine.Profile();
      FaultInjectionStats stats;
      const Report report = engine.InjectAll(&tree, &stats);
      EXPECT_EQ(live.load(), 0) << "a target outlived InjectAll";
      EXPECT_EQ(report.Render(), reference.Render());
      EXPECT_EQ(report.RenderJson(), reference.RenderJson());
      EXPECT_EQ(stats.injections, reference_stats.injections);
      EXPECT_EQ(stats.executions,
                std::min<uint64_t>(workers, stats.injections));
    }
    // A budget stop leaves the other lanes' executions paused mid-run.
    fi.budget_checks = 3;
    FaultInjectionEngine engine(factory, spec, fi);
    FailurePointTree tree = engine.Profile();
    FaultInjectionStats stats;
    engine.InjectAll(&tree, &stats);
    EXPECT_EQ(live.load(), 0) << "a target outlived a budget stop";
    EXPECT_LE(stats.injections, 3u);
  }
}

class ReplayEquivalenceTest : public ::testing::TestWithParam<Case> {};

TEST_P(ReplayEquivalenceTest, MatchesTheReferenceLoopInAnyOrder) {
  const Case& c = GetParam();
  const TargetOptions options = CaseOptions(c);
  const WorkloadSpec spec = CoverageWorkload(c.target, 300);
  const TargetFactory factory = [&] {
    return CreateTarget(c.target, options);
  };
  FaultInjectionEngine profiler(factory, spec);
  FailurePointTree reference_tree = profiler.Profile();
  FaultInjectionStats reference_stats;
  const Report reference =
      ReferenceInjectAll(factory, spec, &reference_tree, &reference_stats);

  struct Run {
    uint32_t workers;
    bool rank;
  };
  for (const Run run : {Run{1, false}, Run{4, false}, Run{4, true}}) {
    SCOPED_TRACE("workers " + std::to_string(run.workers) +
                 (run.rank ? " ranked" : ""));
    FaultInjectionOptions fi;
    fi.strategy = InjectionStrategy::kReplay;
    fi.workers = run.workers;
    fi.rank = run.rank;
    if (run.rank) {
      fi.trace_block_events = 64;  // several checkpoints per cursor
    }
    FaultInjectionEngine engine(factory, spec, fi);
    FailurePointTree tree = engine.Profile();
    ASSERT_TRUE(engine.replay_ready());
    FaultInjectionStats stats;
    const Report report = engine.InjectAll(&tree, &stats);
    EXPECT_EQ(report.Render(), reference.Render());
    EXPECT_EQ(report.RenderJson(), reference.RenderJson());
    EXPECT_EQ(stats.injections, reference_stats.injections);
  }
}

std::vector<Case> AllCases() {
  std::vector<Case> cases;
  for (const std::string& name : AllTargetNames()) {
    cases.push_back({name, false});
    if (!CorrectnessBugs(name).empty()) {
      cases.push_back({name, true});
    }
  }
  return cases;
}

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  return info.param.target + (info.param.seeded ? "_seeded" : "_clean");
}

INSTANTIATE_TEST_SUITE_P(AllTargets, ReExecutionEquivalenceTest,
                         ::testing::ValuesIn(AllCases()), CaseName);
INSTANTIATE_TEST_SUITE_P(AllTargets, ReplayEquivalenceTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

}  // namespace
}  // namespace mumak
