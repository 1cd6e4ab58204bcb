// Tests for the failure point tree, trace analyzer and the Mumak driver.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "src/core/failure_point_tree.h"
#include "src/instrument/deterministic_random.h"
#include "src/core/mumak.h"
#include "src/analysis/trace_analysis.h"
#include "src/instrument/trace.h"
#include "src/targets/btree.h"

namespace mumak {
namespace {

std::vector<FrameId> Stack(std::initializer_list<FrameId> frames) {
  return std::vector<FrameId>(frames);
}

TEST(FailurePointTree, InsertAndFind) {
  FailurePointTree tree;
  const auto a = Stack({1, 2, 3});
  const auto b = Stack({1, 2, 4});
  const auto c = Stack({1, 2});
  EXPECT_EQ(tree.FailurePointCount(), 0u);
  tree.Insert(a);
  tree.Insert(b);
  tree.Insert(c);  // prefix of a: node is both internal and failure point
  tree.Insert(a);  // duplicate
  EXPECT_EQ(tree.FailurePointCount(), 3u);
  EXPECT_NE(tree.Find(a), FailurePointTree::kNotFound);
  EXPECT_NE(tree.Find(c), FailurePointTree::kNotFound);
  EXPECT_EQ(tree.Find(Stack({1, 3})), FailurePointTree::kNotFound);
  EXPECT_EQ(tree.Find(Stack({1})), FailurePointTree::kNotFound);
}

TEST(FailurePointTree, VisitedTracking) {
  FailurePointTree tree;
  const auto a = Stack({1, 2});
  const auto b = Stack({1, 5});
  const auto na = tree.Insert(a);
  tree.Insert(b);
  EXPECT_EQ(tree.UnvisitedCount(), 2u);
  tree.MarkVisited(na);
  EXPECT_EQ(tree.UnvisitedCount(), 1u);
  EXPECT_TRUE(tree.IsVisited(na));
}

TEST(FailurePointTree, StackReconstruction) {
  FailurePointTree tree;
  const auto a = Stack({7, 8, 9});
  const auto node = tree.Insert(a);
  EXPECT_EQ(tree.StackOf(node), a);
}

TEST(FailurePointTree, SerializeRoundTrip) {
  FailurePointTree tree;
  const auto a = Stack({1, 2, 3});
  const auto b = Stack({1, 9});
  const auto na = tree.Insert(a);
  tree.Insert(b);
  tree.MarkVisited(na);

  std::stringstream buffer;
  tree.Serialize(buffer);
  FailurePointTree loaded = FailurePointTree::Deserialize(buffer);
  EXPECT_EQ(loaded.FailurePointCount(), 2u);
  EXPECT_EQ(loaded.UnvisitedCount(), 1u);
  const auto found = loaded.Find(a);
  ASSERT_NE(found, FailurePointTree::kNotFound);
  EXPECT_TRUE(loaded.IsVisited(found));
  EXPECT_EQ(loaded.StackOf(found), a);
}

// -- Trace analyzer pattern truth table --------------------------------------

PmEvent Ev(EventKind kind, uint64_t offset, uint32_t size, uint32_t site,
           uint64_t seq) {
  PmEvent ev;
  ev.kind = kind;
  ev.offset = offset;
  ev.size = size;
  ev.site = site;
  ev.seq = seq;
  return ev;
}

std::vector<Finding> FindingsOfKind(const Report& report, FindingKind kind) {
  std::vector<Finding> out;
  for (const Finding& f : report.findings()) {
    if (f.kind == kind) {
      out.push_back(f);
    }
  }
  return out;
}

// -- Failure point tree properties (parameterized over seeds) ----------------

class TreeProperty : public ::testing::TestWithParam<uint64_t> {};

// Builds a random set of call stacks over a small frame alphabet: shared
// prefixes are common (as in real programs), duplicates are expected.
std::vector<std::vector<FrameId>> RandomStacks(uint64_t seed, size_t count) {
  DeterministicRandom rng(seed);
  std::vector<FrameId> alphabet;
  for (int i = 0; i < 12; ++i) {
    alphabet.push_back(FrameRegistry::Global().Intern(
        "tree_prop_fn_" + std::to_string(i), "f.cc", i));
  }
  std::vector<std::vector<FrameId>> stacks;
  for (size_t i = 0; i < count; ++i) {
    std::vector<FrameId> stack;
    const size_t depth = 1 + rng.NextBelow(6);
    for (size_t d = 0; d < depth; ++d) {
      stack.push_back(alphabet[rng.NextBelow(alphabet.size())]);
    }
    stacks.push_back(std::move(stack));
  }
  return stacks;
}

TEST_P(TreeProperty, InsertFindRoundTripWithDuplicates) {
  const auto stacks = RandomStacks(GetParam(), 200);
  FailurePointTree tree;
  std::map<std::vector<FrameId>, FailurePointTree::NodeIndex> reference;
  for (const auto& stack : stacks) {
    const FailurePointTree::NodeIndex node = tree.Insert(stack);
    auto [it, inserted] = reference.emplace(stack, node);
    if (!inserted) {
      // Re-inserting an existing path returns the same node.
      EXPECT_EQ(node, it->second);
    }
  }
  EXPECT_EQ(tree.FailurePointCount(), reference.size());
  EXPECT_EQ(tree.UnvisitedCount(), reference.size());
  for (const auto& [stack, node] : reference) {
    EXPECT_EQ(tree.Find(stack), node);
    EXPECT_EQ(tree.StackOf(node), stack);
  }
}

TEST_P(TreeProperty, PrefixOfAPathIsNotAFailurePointUnlessInserted) {
  const auto stacks = RandomStacks(GetParam(), 100);
  FailurePointTree tree;
  std::set<std::vector<FrameId>> inserted;
  for (const auto& stack : stacks) {
    tree.Insert(stack);
    inserted.insert(stack);
  }
  for (const auto& stack : inserted) {
    if (stack.size() < 2) {
      continue;
    }
    std::vector<FrameId> prefix(stack.begin(), stack.end() - 1);
    if (inserted.count(prefix) == 0) {
      EXPECT_EQ(tree.Find(prefix), FailurePointTree::kNotFound);
    }
  }
}

TEST_P(TreeProperty, SerialisationPreservesEverything) {
  const auto stacks = RandomStacks(GetParam(), 150);
  FailurePointTree tree;
  std::vector<FailurePointTree::NodeIndex> nodes;
  for (const auto& stack : stacks) {
    nodes.push_back(tree.Insert(stack));
  }
  // Visit a pseudo-random half.
  DeterministicRandom rng(GetParam() ^ 0x5a5a5a5aull);
  for (FailurePointTree::NodeIndex node : nodes) {
    if (rng.NextBelow(2) == 0) {
      tree.MarkVisited(node);
    }
  }
  std::stringstream buffer;
  tree.Serialize(buffer);
  FailurePointTree loaded = FailurePointTree::Deserialize(buffer);
  EXPECT_EQ(loaded.FailurePointCount(), tree.FailurePointCount());
  EXPECT_EQ(loaded.UnvisitedCount(), tree.UnvisitedCount());
  EXPECT_EQ(loaded.UnvisitedNodes(), tree.UnvisitedNodes());
  for (size_t i = 0; i < stacks.size(); ++i) {
    const FailurePointTree::NodeIndex found = loaded.Find(stacks[i]);
    ASSERT_NE(found, FailurePointTree::kNotFound);
    EXPECT_EQ(loaded.IsVisited(found), tree.IsVisited(nodes[i]));
  }
}

TEST_P(TreeProperty, UnvisitedNodesMatchesVisitedFlags) {
  const auto stacks = RandomStacks(GetParam(), 120);
  FailurePointTree tree;
  for (const auto& stack : stacks) {
    tree.Insert(stack);
  }
  std::vector<FailurePointTree::NodeIndex> pending = tree.UnvisitedNodes();
  EXPECT_EQ(pending.size(), tree.UnvisitedCount());
  while (!pending.empty()) {
    tree.MarkVisited(pending.back());
    pending.pop_back();
    EXPECT_EQ(tree.UnvisitedCount(), pending.size());
  }
  EXPECT_TRUE(tree.UnvisitedNodes().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeProperty,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

TEST(TraceAnalyzer, CleanSequenceHasNoFindings) {
  // store; clwb; sfence — the canonical persist.
  std::vector<PmEvent> trace = {
      Ev(EventKind::kStore, 0, 8, 1, 0),
      Ev(EventKind::kClwb, 0, 64, 2, 1),
      Ev(EventKind::kSfence, 0, 0, 3, 2),
  };
  TraceAnalyzer analyzer;
  Report report = analyzer.Analyze(trace, nullptr);
  EXPECT_EQ(report.findings().size(), 0u) << report.Render();
}

TEST(TraceAnalyzer, UnflushedStoreIsDurabilityBugWhenLineFlushedElsewhere) {
  std::vector<PmEvent> trace = {
      Ev(EventKind::kStore, 0, 8, 1, 0),
      Ev(EventKind::kClwb, 0, 64, 2, 1),
      Ev(EventKind::kSfence, 0, 0, 3, 2),
      Ev(EventKind::kStore, 8, 8, 4, 3),  // same line, never flushed again
  };
  TraceAnalyzer analyzer;
  Report report = analyzer.Analyze(trace, nullptr);
  const auto findings = FindingsOfKind(report, FindingKind::kUnflushedStore);
  ASSERT_EQ(findings.size(), 1u) << report.Render();
  EXPECT_FALSE(IsWarning(findings[0].kind));
}

TEST(TraceAnalyzer, NeverFlushedLineIsTransientDataWarning) {
  std::vector<PmEvent> trace = {
      Ev(EventKind::kStore, 4096, 8, 1, 0),
  };
  TraceAnalyzer analyzer;
  Report report = analyzer.Analyze(trace, nullptr);
  const auto findings = FindingsOfKind(report, FindingKind::kTransientData);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_TRUE(IsWarning(findings[0].kind));
  EXPECT_EQ(report.BugCount(), 0u);
}

TEST(TraceAnalyzer, RedundantFlushOnCleanLine) {
  std::vector<PmEvent> trace = {
      Ev(EventKind::kStore, 0, 8, 1, 0),
      Ev(EventKind::kClwb, 0, 64, 2, 1),
      Ev(EventKind::kSfence, 0, 0, 3, 2),
      Ev(EventKind::kClwb, 0, 64, 4, 3),  // nothing written since
      Ev(EventKind::kSfence, 0, 0, 5, 4),
  };
  TraceAnalyzer analyzer;
  Report report = analyzer.Analyze(trace, nullptr);
  EXPECT_EQ(FindingsOfKind(report, FindingKind::kRedundantFlush).size(), 1u)
      << report.Render();
}

TEST(TraceAnalyzer, FlushOfNeverWrittenLineIsRedundant) {
  std::vector<PmEvent> trace = {
      Ev(EventKind::kClwb, 128, 64, 1, 0),
      Ev(EventKind::kSfence, 0, 0, 2, 1),
  };
  TraceAnalyzer analyzer;
  Report report = analyzer.Analyze(trace, nullptr);
  EXPECT_EQ(FindingsOfKind(report, FindingKind::kRedundantFlush).size(), 1u);
}

TEST(TraceAnalyzer, RedundantFence) {
  std::vector<PmEvent> trace = {
      Ev(EventKind::kStore, 0, 8, 1, 0),
      Ev(EventKind::kClwb, 0, 64, 2, 1),
      Ev(EventKind::kSfence, 0, 0, 3, 2),
      Ev(EventKind::kSfence, 0, 0, 4, 3),  // nothing pending
  };
  TraceAnalyzer analyzer;
  Report report = analyzer.Analyze(trace, nullptr);
  EXPECT_EQ(FindingsOfKind(report, FindingKind::kRedundantFence).size(), 1u);
}

TEST(TraceAnalyzer, MultiStoreFlushIsWarning) {
  std::vector<PmEvent> trace = {
      Ev(EventKind::kStore, 0, 8, 1, 0),
      Ev(EventKind::kStore, 8, 8, 2, 1),
      Ev(EventKind::kClwb, 0, 64, 3, 2),
      Ev(EventKind::kSfence, 0, 0, 4, 3),
  };
  TraceAnalyzer analyzer;
  Report report = analyzer.Analyze(trace, nullptr);
  EXPECT_EQ(FindingsOfKind(report, FindingKind::kMultiStoreFlush).size(), 1u);
  EXPECT_EQ(report.BugCount(), 0u);
}

TEST(TraceAnalyzer, MultiFlushFenceIsOrderingWarning) {
  std::vector<PmEvent> trace = {
      Ev(EventKind::kStore, 0, 8, 1, 0),
      Ev(EventKind::kStore, 64, 8, 2, 1),
      Ev(EventKind::kClwb, 0, 64, 3, 2),
      Ev(EventKind::kClwb, 64, 64, 4, 3),
      Ev(EventKind::kSfence, 0, 0, 5, 4),
  };
  TraceAnalyzer analyzer;
  Report report = analyzer.Analyze(trace, nullptr);
  EXPECT_EQ(FindingsOfKind(report, FindingKind::kMultiFlushFence).size(), 1u);
}

TEST(TraceAnalyzer, DirtyOverwriteDetected) {
  std::vector<PmEvent> trace = {
      Ev(EventKind::kStore, 0, 8, 1, 0),
      Ev(EventKind::kStore, 0, 8, 1, 1),  // overwrites unpersisted store
      Ev(EventKind::kClwb, 0, 64, 2, 2),
      Ev(EventKind::kSfence, 0, 0, 3, 3),
  };
  TraceAnalysisOptions options;
  options.report_dirty_overwrites = true;
  TraceAnalyzer analyzer(options);
  Report report = analyzer.Analyze(trace, nullptr);
  EXPECT_EQ(FindingsOfKind(report, FindingKind::kDirtyOverwrite).size(), 1u);
}

TEST(TraceAnalyzer, UnfencedNtStoreIsDurabilityBug) {
  std::vector<PmEvent> trace = {
      Ev(EventKind::kNtStore, 0, 8, 1, 0),
  };
  TraceAnalyzer analyzer;
  Report report = analyzer.Analyze(trace, nullptr);
  EXPECT_EQ(FindingsOfKind(report, FindingKind::kUnflushedStore).size(), 1u);
}

TEST(TraceAnalyzer, FencedNtStoreIsClean) {
  std::vector<PmEvent> trace = {
      Ev(EventKind::kNtStore, 0, 8, 1, 0),
      Ev(EventKind::kSfence, 0, 0, 2, 1),
  };
  TraceAnalyzer analyzer;
  Report report = analyzer.Analyze(trace, nullptr);
  EXPECT_EQ(report.findings().size(), 0u) << report.Render();
}

TEST(TraceAnalyzer, RmwIsNotARedundantFence) {
  std::vector<PmEvent> trace = {
      Ev(EventKind::kRmw, 0, 8, 1, 0),
      Ev(EventKind::kClwb, 0, 64, 2, 1),
      Ev(EventKind::kSfence, 0, 0, 3, 2),
  };
  TraceAnalyzer analyzer;
  Report report = analyzer.Analyze(trace, nullptr);
  EXPECT_EQ(FindingsOfKind(report, FindingKind::kRedundantFence).size(), 0u)
      << report.Render();
}

TEST(TraceAnalyzer, FindingsAreDeduplicatedBySite) {
  std::vector<PmEvent> trace;
  for (int i = 0; i < 10; ++i) {
    trace.push_back(
        Ev(EventKind::kClwb, 128, 64, /*site=*/7, /*seq=*/i * 2));
    trace.push_back(Ev(EventKind::kSfence, 0, 0, /*site=*/8, i * 2 + 1));
  }
  TraceAnalyzer analyzer;
  Report report = analyzer.Analyze(trace, nullptr);
  EXPECT_EQ(FindingsOfKind(report, FindingKind::kRedundantFlush).size(), 1u);
}

TEST(TraceAnalyzer, WarningsCanBeDisabled) {
  TraceAnalysisOptions options;
  options.report_warnings = false;
  std::vector<PmEvent> trace = {
      Ev(EventKind::kStore, 4096, 8, 1, 0),  // transient-data warning
  };
  TraceAnalyzer analyzer(options);
  Report report = analyzer.Analyze(trace, nullptr);
  EXPECT_EQ(report.findings().size(), 0u);
}

TEST(TraceAnalyzer, AnalyzeFileMatchesInMemory) {
  // The streamed (file) analysis must produce exactly the findings of the
  // in-memory pass.
  std::vector<PmEvent> trace;
  for (uint64_t i = 0; i < 5000; i += 5) {
    trace.push_back(Ev(EventKind::kStore, (i * 64) % 4096, 8, 1, i));
    trace.push_back(Ev(EventKind::kClwb, (i * 64) % 4096, 64, 2, i + 1));
    trace.push_back(Ev(EventKind::kSfence, 0, 0, 3, i + 2));
    trace.push_back(Ev(EventKind::kClwb, (i * 64) % 4096, 64, 4, i + 3));
    trace.push_back(Ev(EventKind::kSfence, 0, 0, 5, i + 4));
  }
  TraceAnalyzer in_memory;
  Report expected = in_memory.Analyze(trace, nullptr);

  const std::string path = ::testing::TempDir() + "/parity.bin";
  {
    TraceFileSink sink(path, TraceSinkOptions{});
    for (const PmEvent& ev : trace) {
      sink.OnEvent(ev);
    }
    sink.Close();
  }
  TraceAnalyzer streamed;
  TraceStats stats;
  Report got = streamed.AnalyzeFile(path, &stats);
  ASSERT_EQ(got.findings().size(), expected.findings().size());
  for (size_t i = 0; i < got.findings().size(); ++i) {
    EXPECT_EQ(got.findings()[i].kind, expected.findings()[i].kind);
    EXPECT_EQ(got.findings()[i].seq, expected.findings()[i].seq);
  }
  EXPECT_EQ(stats.events, trace.size());
}

// -- eADR mode (§4.3) ---------------------------------------------------------

TEST(TraceAnalyzerEadr, FlushesAreOverhead) {
  // The canonical persist sequence: correct under ADR, wasteful under eADR.
  std::vector<PmEvent> trace = {
      Ev(EventKind::kStore, 0, 8, 1, 0),
      Ev(EventKind::kClwb, 0, 64, 2, 1),
      Ev(EventKind::kSfence, 0, 0, 3, 2),
  };
  TraceAnalysisOptions options;
  options.eadr_mode = true;
  TraceAnalyzer analyzer(options);
  Report report = analyzer.Analyze(trace, nullptr);
  EXPECT_EQ(FindingsOfKind(report, FindingKind::kRedundantFlush).size(), 1u)
      << report.Render();
  // The fence is still meaningful: a store preceded it.
  EXPECT_EQ(FindingsOfKind(report, FindingKind::kRedundantFence).size(), 0u);
}

TEST(TraceAnalyzerEadr, DurabilityPatternsDoNotApply) {
  // An unflushed store is fine under eADR (the caches are persistent).
  std::vector<PmEvent> trace = {
      Ev(EventKind::kStore, 0, 8, 1, 0),
      Ev(EventKind::kSfence, 0, 0, 2, 1),
  };
  TraceAnalysisOptions options;
  options.eadr_mode = true;
  TraceAnalyzer analyzer(options);
  Report report = analyzer.Analyze(trace, nullptr);
  EXPECT_EQ(report.findings().size(), 0u) << report.Render();
}

TEST(TraceAnalyzerEadr, FencesStillOrderStores) {
  std::vector<PmEvent> trace = {
      Ev(EventKind::kStore, 0, 8, 1, 0),
      Ev(EventKind::kSfence, 0, 0, 2, 1),
      Ev(EventKind::kSfence, 0, 0, 3, 2),  // nothing stored in between
  };
  TraceAnalysisOptions options;
  options.eadr_mode = true;
  TraceAnalyzer analyzer(options);
  Report report = analyzer.Analyze(trace, nullptr);
  EXPECT_EQ(FindingsOfKind(report, FindingKind::kRedundantFence).size(), 1u);
}

TEST(MumakDriverEadr, OrderingBugsStillFoundUnderEadr) {
  // §4.3: fault injection's atomicity/ordering findings survive eADR; the
  // seeded write-before-TX_ADD bug must still be detected, and the ADR
  // flushes become performance findings.
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  options.bugs = {"btree.split_unlogged"};
  WorkloadSpec spec;
  spec.operations = 300;
  spec.key_space = 50;
  MumakOptions mumak_options;
  mumak_options.eadr_mode = true;
  Mumak mumak([options] { return std::make_unique<BtreeTarget>(options); },
              spec, mumak_options);
  MumakResult result = mumak.Analyze();
  bool fi_bug = false;
  bool flush_overhead = false;
  for (const Finding& f : result.report.findings()) {
    fi_bug |= f.source == FindingSource::kFaultInjection;
    flush_overhead |= f.kind == FindingKind::kRedundantFlush;
  }
  EXPECT_TRUE(fi_bug);
  EXPECT_TRUE(flush_overhead);
}

// -- Mumak driver -------------------------------------------------------------

TEST(MumakDriver, CleanBtreeYieldsNoBugs) {
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  WorkloadSpec spec;
  spec.operations = 300;
  spec.key_space = 50;
  Mumak mumak([options] { return std::make_unique<BtreeTarget>(options); },
              spec);
  MumakResult result = mumak.Analyze();
  EXPECT_EQ(result.report.BugCount(), 0u) << result.report.Render();
  EXPECT_GT(result.fault_injection.failure_points, 0u);
  EXPECT_GT(result.trace.events, 0u);
  EXPECT_GE(result.resources.ram_multiplier, 1.0);
  EXPECT_EQ(result.resources.pm_multiplier, 1.0);
}

TEST(MumakDriver, TreeSerialisationBetweenPhases) {
  // With tree_path set, the failure point tree round-trips through disk
  // between profiling and injection — the result must be identical to the
  // in-memory pipeline.
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  options.bugs = {"btree.split_unlogged"};
  WorkloadSpec spec;
  spec.operations = 300;
  spec.key_space = 50;

  MumakOptions with_file;
  with_file.tree_path = ::testing::TempDir() + "/fp_tree.bin";
  Mumak mumak_file(
      [options] { return std::make_unique<BtreeTarget>(options); }, spec,
      with_file);
  const MumakResult file_result = mumak_file.Analyze();

  Mumak mumak_mem(
      [options] { return std::make_unique<BtreeTarget>(options); }, spec);
  const MumakResult mem_result = mumak_mem.Analyze();

  EXPECT_EQ(file_result.fault_injection.failure_points,
            mem_result.fault_injection.failure_points);
  EXPECT_EQ(file_result.fault_injection.injections,
            mem_result.fault_injection.injections);
  EXPECT_EQ(file_result.report.BugCount(), mem_result.report.BugCount());
}

TEST(MumakDriver, SeededBugsAreFoundWithBacktraces) {
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  options.bugs = {"btree.split_unlogged", "btree.rf_get",
                  "btree.rfence_put", "btree.transient_stats"};
  WorkloadSpec spec;
  spec.operations = 400;
  spec.key_space = 60;
  Mumak mumak([options] { return std::make_unique<BtreeTarget>(options); },
              spec);
  MumakResult result = mumak.Analyze();
  EXPECT_GT(result.report.BugCount(), 0u);

  bool fi_bug = false, redundant_flush = false, redundant_fence = false,
       transient = false;
  for (const Finding& f : result.report.findings()) {
    switch (f.kind) {
      case FindingKind::kRecoveryUnrecoverable:
      case FindingKind::kRecoveryCrash:
        fi_bug = true;
        EXPECT_FALSE(f.location.empty());
        break;
      case FindingKind::kRedundantFlush:
        redundant_flush = true;
        // Backtrace resolution should attach a stack, not a bare pc.
        EXPECT_NE(f.location.find("<-"), std::string::npos) << f.location;
        break;
      case FindingKind::kRedundantFence:
        redundant_fence = true;
        break;
      case FindingKind::kTransientData:
        transient = true;
        break;
      default:
        break;
    }
  }
  EXPECT_TRUE(fi_bug);
  EXPECT_TRUE(redundant_flush);
  EXPECT_TRUE(redundant_fence);
  EXPECT_TRUE(transient);
}

// The failure-point sink as it was before stack ids: copies the shadow
// stack and walks the tree at every failure point.
class FramesWalkProfileSink : public EventSink {
 public:
  FramesWalkProfileSink(FailurePointTree* tree,
                        FailurePointGranularity granularity)
      : tree_(tree), granularity_(granularity) {}

  void OnEvent(const PmEvent& event) override {
    if (granularity_ == FailurePointGranularity::kStore) {
      if (IsStore(event.kind)) {
        Handle(event);
      }
      return;
    }
    if (IsStore(event.kind)) {
      store_since_failure_point_ = true;
    } else if (IsPersistencyInstruction(event.kind) &&
               store_since_failure_point_) {
      store_since_failure_point_ = false;
      Handle(event);
    }
  }

  std::unordered_map<FailurePointTree::NodeIndex, uint64_t> first_seq;

 private:
  void Handle(const PmEvent& event) {
    const auto frames = ShadowCallStack::Current().frames();
    std::vector<FrameId> path(frames.begin(), frames.end());
    path.push_back(event.site);
    first_seq.emplace(tree_->Insert(path), event.seq);
  }

  FailurePointTree* tree_;
  FailurePointGranularity granularity_;
  bool store_since_failure_point_ = false;
};

class KeyedFailurePointSinkTest
    : public ::testing::TestWithParam<
          std::tuple<std::string, FailurePointGranularity>> {};

TEST_P(KeyedFailurePointSinkTest, MatchesFramesWalkReference) {
  // Keying failure points on (stack id, site) must build the same tree, in
  // the same insert order, with the same first-hit seqs.
  const auto& [name, granularity] = GetParam();
  const TargetFactory factory = [name] {
    return CreateTarget(name, TargetOptions{});
  };
  WorkloadSpec spec;
  spec.operations = 400;
  spec.key_space = 64;
  FaultInjectionOptions fi_options;
  fi_options.granularity = granularity;
  FaultInjectionEngine engine(factory, spec, fi_options);
  const FailurePointTree keyed = engine.Profile();

  FailurePointTree reference;
  FramesWalkProfileSink sink(&reference, granularity);
  TargetPtr target = factory();
  PmPool pool(target->DefaultPoolSize());
  {
    ScopedSink attach(pool.hub(), &sink);
    FaultInjectionEngine::ExecuteWorkload(*target, pool, spec);
  }
  std::ostringstream keyed_bytes, reference_bytes;
  keyed.Serialize(keyed_bytes);
  reference.Serialize(reference_bytes);
  EXPECT_GT(keyed.FailurePointCount(), 5u);
  EXPECT_EQ(keyed_bytes.str(), reference_bytes.str());
  EXPECT_EQ(engine.first_hit_seq(), sink.first_seq);
}

INSTANTIATE_TEST_SUITE_P(
    Targets, KeyedFailurePointSinkTest,
    ::testing::Combine(
        ::testing::Values("btree", "hashmap_tx", "fast_fair"),
        ::testing::Values(FailurePointGranularity::kPersistencyInstruction,
                          FailurePointGranularity::kStore)));

TEST(ParallelInjection, MatchesSerialOnCleanTarget) {
  // Parallel injection partitions failure points across workers; on a
  // clean target both modes must visit every point, run the same number of
  // injections, and report nothing.
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  WorkloadSpec spec;
  spec.operations = 250;
  spec.key_space = 40;
  auto factory = [options]() -> TargetPtr {
    return std::make_unique<BtreeTarget>(options);
  };

  FaultInjectionEngine serial_engine(factory, spec);
  FaultInjectionStats serial_stats;
  FailurePointTree serial_tree = serial_engine.Profile();
  const Report serial_report =
      serial_engine.InjectAll(&serial_tree, &serial_stats);

  FaultInjectionOptions parallel_options;
  parallel_options.workers = 4;
  FaultInjectionEngine parallel_engine(factory, spec, parallel_options);
  FaultInjectionStats parallel_stats;
  FailurePointTree parallel_tree = parallel_engine.Profile();
  const Report parallel_report =
      parallel_engine.InjectAll(&parallel_tree, &parallel_stats);

  EXPECT_EQ(serial_stats.failure_points, parallel_stats.failure_points);
  EXPECT_EQ(serial_stats.injections, parallel_stats.injections);
  EXPECT_EQ(parallel_tree.UnvisitedCount(), 0u);
  EXPECT_EQ(serial_report.BugCount(), 0u) << serial_report.Render();
  EXPECT_EQ(parallel_report.BugCount(), 0u) << parallel_report.Render();
}

TEST(ParallelInjection, FindsTheSameSeededBugsAsSerial) {
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  options.bugs = {"btree.split_unlogged"};
  WorkloadSpec spec;
  spec.operations = 300;
  spec.key_space = 50;

  MumakOptions serial;
  serial.trace_analysis = false;
  Mumak serial_mumak(
      [options] { return std::make_unique<BtreeTarget>(options); }, spec,
      serial);
  const MumakResult serial_result = serial_mumak.Analyze();

  MumakOptions parallel;
  parallel.trace_analysis = false;
  parallel.injection_workers = 4;
  Mumak parallel_mumak(
      [options] { return std::make_unique<BtreeTarget>(options); }, spec,
      parallel);
  const MumakResult parallel_result = parallel_mumak.Analyze();

  EXPECT_GT(serial_result.report.BugCount(), 0u);
  EXPECT_EQ(serial_result.report.BugCount(),
            parallel_result.report.BugCount());
  EXPECT_EQ(serial_result.fault_injection.injections,
            parallel_result.fault_injection.injections);
  // The seq-ordered merge keeps, per recovery detail, the lowest-seq
  // triggering failure point whichever worker checked it, so the reports
  // are equal, not just the bug sets.
  EXPECT_EQ(parallel_result.report.Render(), serial_result.report.Render());
  EXPECT_EQ(parallel_result.report.RenderJson(),
            serial_result.report.RenderJson());
}

TEST(ParallelInjection, TargetedSinkCrashesOnlyAtAssignedPoint) {
  // A kInjectAt sink must pass through every other failure point
  // untouched — the tree stays read-only and unvisited. Targets are keyed
  // by the first-hit instruction counter recorded during profiling, which
  // (unlike call-stack re-matching) is stable across optimisation levels.
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  WorkloadSpec spec;
  spec.operations = 120;
  spec.key_space = 30;
  auto factory = [options]() -> TargetPtr {
    return std::make_unique<BtreeTarget>(options);
  };
  FaultInjectionEngine engine(factory, spec);
  FailurePointTree tree = engine.Profile();
  const std::vector<FailurePointTree::NodeIndex> pending =
      tree.UnvisitedNodes();
  ASSERT_GT(pending.size(), 2u);
  const FailurePointTree::NodeIndex assigned = pending[pending.size() / 2];
  const auto seq_it = engine.first_hit_seq().find(assigned);
  ASSERT_NE(seq_it, engine.first_hit_seq().end());

  TargetPtr target = factory();
  PmPool pool(target->DefaultPoolSize());
  FailurePointSink sink(&tree, FailurePointSink::Mode::kInjectAt,
                        FailurePointGranularity::kPersistencyInstruction);
  sink.set_inject_target(assigned, seq_it->second);
  bool crashed = false;
  FailurePointTree::NodeIndex crashed_at = FailurePointTree::kNotFound;
  uint64_t crashed_seq = 0;
  try {
    ScopedSink attach(pool.hub(), &sink);
    FaultInjectionEngine::ExecuteWorkload(*target, pool, spec);
  } catch (const CrashSignal& signal) {
    crashed = true;
    crashed_at = signal.node;
    crashed_seq = signal.seq;
  }
  EXPECT_TRUE(crashed);
  EXPECT_EQ(crashed_at, assigned);
  EXPECT_EQ(crashed_seq, seq_it->second);
  // kInjectAt never mutates visited flags itself.
  EXPECT_EQ(tree.UnvisitedNodes().size(), pending.size());
}

TEST(ParallelInjection, RespectsInjectionCap) {
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  WorkloadSpec spec;
  spec.operations = 200;
  spec.key_space = 40;
  auto factory = [options]() -> TargetPtr {
    return std::make_unique<BtreeTarget>(options);
  };
  FaultInjectionOptions capped;
  capped.workers = 4;
  capped.budget_checks = 3;
  FaultInjectionEngine engine(factory, spec, capped);
  FaultInjectionStats stats;
  FailurePointTree tree = engine.Profile();
  engine.InjectAll(&tree, &stats);
  EXPECT_TRUE(stats.budget_exhausted);
  // The cap is taken at dispatch, so racing lanes never overshoot it.
  EXPECT_EQ(stats.injections, 3u);
  EXPECT_GT(tree.UnvisitedCount(), 0u);
}

// A btree whose workload throws at its 100th operation.
class ThrowingBtree : public BtreeTarget {
 public:
  using BtreeTarget::BtreeTarget;
  void Execute(PmPool& pool, const Op& op) override {
    if (++ops_ == 100) {
      throw std::runtime_error("workload failed");
    }
    BtreeTarget::Execute(pool, op);
  }

 private:
  int ops_ = 0;
};

// An exception from target code reaches InjectAll's caller at any lane
// count: every lane stops and the first exception is rethrown. Covers the
// factory at a lane's setup (its second call), at a paused execution's or
// an oracle's target (later calls), and the workload itself, which runs on
// the paused execution's thread.
TEST(ParallelInjection, LaneExceptionsReachTheCaller) {
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  WorkloadSpec spec;
  spec.operations = 200;
  spec.key_space = 40;
  for (const uint32_t workers : {1u, 4u}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    FaultInjectionOptions fi;
    fi.workers = workers;
    for (const int k : {2, 3, 9}) {
      SCOPED_TRACE("factory call " + std::to_string(k));
      std::atomic<int> calls{0};
      auto factory = [&]() -> TargetPtr {
        if (++calls == k) {
          throw std::runtime_error("factory failed");
        }
        return std::make_unique<BtreeTarget>(options);
      };
      FaultInjectionEngine engine(factory, spec, fi);
      FailurePointTree tree = engine.Profile();
      FaultInjectionStats stats;
      EXPECT_THROW(engine.InjectAll(&tree, &stats), std::runtime_error);
    }
    std::atomic<int> calls{0};
    auto factory = [&]() -> TargetPtr {
      if (++calls == 1) {
        return std::make_unique<BtreeTarget>(options);  // the profile
      }
      return std::make_unique<ThrowingBtree>(options);
    };
    FaultInjectionEngine engine(factory, spec, fi);
    FailurePointTree tree = engine.Profile();
    FaultInjectionStats stats;
    EXPECT_THROW(engine.InjectAll(&tree, &stats), std::runtime_error);
  }
}

}  // namespace
}  // namespace mumak
