// Replay-based injection equivalence: crash images synthesized from the
// profiled trace (ReplayCursor / InjectionStrategy::kReplay) must match the
// images — and the reports — that per-failure-point workload re-execution
// produces. A graceful crash is a deterministic program-order prefix
// (§4.1), so at persistency-instruction granularity the two strategies are
// interchangeable; these tests pin that property across three targets.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench/flush_heavy_target.h"
#include "src/core/fault_injection.h"
#include "src/core/injection_pipeline.h"
#include "src/observability/metrics.h"
#include "src/pmem/replay_cursor.h"
#include "src/targets/target.h"

namespace mumak {
namespace {

WorkloadSpec SmallSpec() {
  WorkloadSpec spec;
  spec.operations = 120;
  spec.key_space = 30;
  return spec;
}

TargetFactory Factory(const std::string& name, const TargetOptions& options) {
  return [name, options]() -> TargetPtr { return CreateTarget(name, options); };
}

// Runs Profile + InjectAll with the given strategy/worker count/image
// dedup and returns the report.
Report RunInjection(const std::string& target, const TargetOptions& options,
                    const WorkloadSpec& spec, InjectionStrategy strategy,
                    uint32_t workers, FaultInjectionStats* stats,
                    bool image_dedup = true) {
  FaultInjectionOptions fi;
  fi.strategy = strategy;
  fi.workers = workers;
  fi.image_dedup = image_dedup;
  FaultInjectionEngine engine(Factory(target, options), spec, fi);
  FailurePointTree tree = engine.Profile();
  return engine.InjectAll(&tree, stats);
}

// For every failure point the profiling run discovered, the replayed
// graceful image must be byte-identical to the one obtained by re-executing
// the workload and crashing at that point.
TEST(ReplayEquivalence, ByteIdenticalImagesPerFailurePoint) {
  for (const char* name : {"btree", "hashmap_tx", "fast_fair"}) {
    SCOPED_TRACE(name);
    TargetOptions options;
    options.pmdk_version = PmdkVersion::k16;
    const WorkloadSpec spec = SmallSpec();
    const TargetFactory factory = Factory(name, options);

    FaultInjectionOptions fi;
    fi.strategy = InjectionStrategy::kReplay;
    FaultInjectionEngine engine(factory, spec, fi);
    FailurePointTree tree = engine.Profile();
    ASSERT_TRUE(engine.replay_ready());
    ASSERT_EQ(engine.first_hit_seq().size(), tree.FailurePointCount());

    // The injection schedule: every failure point at its first occurrence,
    // in instruction-counter order (one forward cursor pass covers all).
    std::vector<std::pair<uint64_t, FailurePointTree::NodeIndex>> points;
    for (const auto& [node, seq] : engine.first_hit_seq()) {
      points.emplace_back(seq, node);
    }
    std::sort(points.begin(), points.end());
    ASSERT_FALSE(points.empty());

    ReplayCursor cursor(engine.replay_trace(), engine.profiled_pool_size());
    for (const auto& [seq, node] : points) {
      const auto& replayed = cursor.AdvanceTo(seq);

      TargetPtr target = factory();
      PmPool pool(target->DefaultPoolSize());
      FailurePointSink sink(&tree, FailurePointSink::Mode::kInjectAt,
                            fi.granularity);
      sink.set_inject_target(node, seq);
      bool crashed = false;
      std::vector<uint8_t> reexecuted;
      try {
        ScopedSink attach(pool.hub(), &sink);
        FaultInjectionEngine::ExecuteWorkload(*target, pool, spec);
      } catch (const CrashSignal& signal) {
        crashed = true;
        EXPECT_EQ(signal.seq, seq);
        reexecuted = pool.GracefulImage();
      }
      ASSERT_TRUE(crashed) << "no crash at seq " << seq;
      ASSERT_TRUE(replayed == reexecuted)
          << "image mismatch at seq " << seq << " (node " << node << ")";
    }
  }
}

// The incremental per-line digest must agree, at every failure point, with
// a from-scratch hash of the same bytes — the correctness contract behind
// content-addressed verdict deduplication.
TEST(ReplayCursorTest, IncrementalDigestMatchesFullRehash) {
  for (const char* name : {"btree", "hashmap_tx"}) {
    SCOPED_TRACE(name);
    TargetOptions options;
    options.pmdk_version = PmdkVersion::k16;
    FaultInjectionOptions fi;
    fi.strategy = InjectionStrategy::kReplay;
    FaultInjectionEngine engine(Factory(name, options), SmallSpec(), fi);
    FailurePointTree tree = engine.Profile();
    ASSERT_TRUE(engine.replay_ready());

    std::vector<uint64_t> seqs;
    for (const auto& [node, seq] : engine.first_hit_seq()) {
      seqs.push_back(seq);
    }
    std::sort(seqs.begin(), seqs.end());
    ASSERT_FALSE(seqs.empty());

    ReplayCursor cursor(engine.replay_trace(), engine.profiled_pool_size(),
                        /*track_digest=*/true);
    ASSERT_TRUE(cursor.tracks_digest());
    // Initial (zeroed) image first, then every failure point.
    EXPECT_EQ(cursor.Digest(),
              ComputeContentDigest(cursor.image().data(),
                                   cursor.image().size()));
    for (const uint64_t seq : seqs) {
      const auto& image = cursor.AdvanceTo(seq);
      const ImageDigest expected =
          ComputeContentDigest(image.data(), image.size());
      ASSERT_EQ(cursor.Digest(), expected)
          << "digest divergence at seq " << seq;
      // Digest() is settle-and-cache, not consume: a second read agrees.
      ASSERT_EQ(cursor.Digest(), expected);
    }
  }
}

// Distinct images must get distinct digests on a real trace walk (no
// accidental identity from the XOR accumulation).
TEST(ReplayCursorTest, DigestDistinguishesImagesAlongTheTrace) {
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  FaultInjectionOptions fi;
  fi.strategy = InjectionStrategy::kReplay;
  FaultInjectionEngine engine(Factory("btree", options), SmallSpec(), fi);
  engine.Profile();
  ASSERT_TRUE(engine.replay_ready());

  std::vector<uint64_t> seqs;
  for (const auto& [node, seq] : engine.first_hit_seq()) {
    seqs.push_back(seq);
  }
  std::sort(seqs.begin(), seqs.end());

  ReplayCursor cursor(engine.replay_trace(), engine.profiled_pool_size(),
                      /*track_digest=*/true);
  auto prev = cursor.image();
  ImageDigest prev_digest = cursor.Digest();
  size_t changed = 0;
  for (const uint64_t seq : seqs) {
    const auto& image = cursor.AdvanceTo(seq);
    const ImageDigest digest = cursor.Digest();
    if (image != prev) {
      EXPECT_NE(digest, prev_digest) << "collision at seq " << seq;
      ++changed;
    } else {
      EXPECT_EQ(digest, prev_digest);
    }
    prev = image;
    prev_digest = digest;
  }
  EXPECT_GT(changed, 0u);
}

// One lane, both image sources: the lane medium an oracle recovered on is
// reused for the next image, which must still equal a fresh re-execution's
// GracefulImage() byte for byte, digest included. A write path that
// forgets to mark the footprint leaves recovery's bytes behind in the lane
// medium, and this catches it. The dispatch order steps backwards once, so
// the replay cursor also restores a checkpoint (or the zero image) in
// place.
TEST(ImageSourceTest, LaneMediumImagesMatchAFreshReexecution) {
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  options.bugs = {"btree.split_unlogged"};
  const WorkloadSpec spec = SmallSpec();
  const TargetFactory factory = Factory("btree", options);
  FaultInjectionOptions fi;
  fi.strategy = InjectionStrategy::kReplay;
  fi.trace_block_events = 64;  // room for checkpoints in a short trace
  FaultInjectionEngine engine(factory, spec, fi);
  FailurePointTree tree = engine.Profile();
  ASSERT_TRUE(engine.replay_ready());
  const std::vector<ReplayPoint> schedule = engine.BuildReplaySchedule(tree);
  ASSERT_GT(schedule.size(), 4u);
  const size_t mid = schedule.size() / 2;
  std::vector<ReplayPoint> order(schedule.begin() + mid, schedule.end());
  order.insert(order.end(), schedule.begin(), schedule.begin() + mid);

  for (const bool replay : {false, true}) {
    SCOPED_TRACE(replay ? "replay" : "reexec");
    ImageSource source =
        replay ? ImageSource(engine.replay_trace(),
                             engine.profiled_pool_size(),
                             /*track_digest=*/true, /*seek_checkpoints=*/4)
               : ImageSource(factory, spec);
    size_t rewrites = 0;
    for (const ReplayPoint& point : order) {
      ASSERT_TRUE(source.Produce(point));
      TargetPtr target = factory();
      PmPool pool(target->DefaultPoolSize());
      FailurePointSink sink(&tree, FailurePointSink::Mode::kInjectAt,
                            fi.granularity);
      sink.set_inject_target(point.node, point.seq);
      std::vector<uint8_t> expected;
      try {
        ScopedSink attach(pool.hub(), &sink);
        FaultInjectionEngine::ExecuteWorkload(*target, pool, spec);
      } catch (const CrashSignal&) {
        expected = pool.GracefulImage();
      }
      ASSERT_FALSE(expected.empty()) << "no crash at seq " << point.seq;
      ASSERT_TRUE(source.image() == expected) << "seq " << point.seq;
      ASSERT_EQ(source.Digest(),
                ComputeContentDigest(expected.data(), expected.size()))
          << "seq " << point.seq;

      PmPool recovered = source.OraclePool();
      const std::span<const uint8_t> oracle_image =
          recovered.model().durable_bytes();
      ASSERT_TRUE(std::equal(oracle_image.begin(), oracle_image.end(),
                             expected.begin(), expected.end()))
          << "seq " << point.seq;
      TargetPtr fresh = factory();
      RunRecoveryOracle(*fresh, recovered);
      rewrites += std::equal(oracle_image.begin(), oracle_image.end(),
                             expected.begin(), expected.end())
                      ? 0
                      : 1;
    }
    // Otherwise the lane medium would never hold anything to clear.
    EXPECT_GT(rewrites, 0u);
  }
}

// Replay's memory gate: the trace replay reads is the profile's v3 stream
// with store payloads, a few bytes per event (a row-format copy of the
// same trace cost ~70 B/event), and an inline seq-ordered campaign decodes
// each of its blocks at most once.
TEST(ReplayMemory, StreamCostsAFewBytesPerEventAndDecodesEachBlockOnce) {
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  options.bugs = {"btree.split_unlogged", "btree.merge_unlogged",
                  "btree.count_unlogged"};
  WorkloadSpec spec;
  spec.operations = 6000;
  spec.put_pct = 34;
  spec.get_pct = 33;
  spec.delete_pct = 33;
  MetricsRegistry registry;
  FaultInjectionOptions fi;
  fi.strategy = InjectionStrategy::kReplay;
  fi.metrics = &registry;
  FaultInjectionEngine engine(Factory("btree", options), spec, fi);
  FailurePointTree tree = engine.Profile();
  FaultInjectionStats stats;
  engine.InjectAll(&tree, &stats);
  const MetricsSnapshot metrics = registry.Snapshot();
  const double events = static_cast<double>(metrics.gauges.at("profile.pm_events"));
  const double bytes =
      static_cast<double>(metrics.gauges.at("inject.replay_trace_bytes"));
  ASSERT_GT(events, 100000);
  EXPECT_EQ(bytes, static_cast<double>(stats.replay_trace_bytes));
  EXPECT_LE(bytes / events, 4.0) << bytes << " bytes for " << events
                                 << " events";
  const uint64_t blocks = metrics.gauges.at("profile.trace_blocks");
  ASSERT_GT(blocks, 1u);
  const uint64_t decoded =
      metrics.CounterValue("inject.trace_blocks_decoded");
  EXPECT_GT(decoded, 0u);
  EXPECT_LE(decoded, blocks);
}

// Every strategy x worker count x image-dedup combination must render the
// reference loop's report byte for byte — same findings, details,
// locations and triggering seqs — on buggy targets. The seq-ordered merge
// makes the report independent of which lane checked what.
TEST(ReplayEquivalence, IdenticalReportsBetweenStrategies) {
  const struct {
    const char* target;
    const char* bug;
  } cases[] = {
      {"btree", "btree.split_unlogged"},
      {"hashmap_tx", "hashmap_tx.prepend_unlogged"},
      {"fast_fair", "ff.c1_sibling_link_first"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.target);
    TargetOptions options;
    options.pmdk_version = PmdkVersion::k16;
    options.bugs = {c.bug};
    // Large enough to trigger structural bugs (splits need enough inserts).
    WorkloadSpec spec;
    spec.operations = 300;
    spec.key_space = 50;

    // The reference: the paper's call-stack kInject loop.
    FaultInjectionEngine profiler(Factory(c.target, options), spec);
    FailurePointTree reference_tree = profiler.Profile();
    FaultInjectionStats reference_stats;
    const Report reference =
        ReferenceInjectAll(Factory(c.target, options), spec, &reference_tree,
                           &reference_stats);
    ASSERT_GT(reference.BugCount(), 0u) << "bug " << c.bug
                                        << " not triggered";

    for (const InjectionStrategy strategy :
         {InjectionStrategy::kReExecute, InjectionStrategy::kReplay}) {
      const bool replay = strategy == InjectionStrategy::kReplay;
      for (const uint32_t workers : {1u, 4u}) {
        for (const bool dedup : {true, false}) {
          SCOPED_TRACE(std::string(replay ? "replay" : "reexec") +
                       " workers " + std::to_string(workers) +
                       (dedup ? " dedup" : " no-dedup"));
          FaultInjectionStats stats;
          const Report report = RunInjection(c.target, options, spec,
                                             strategy, workers, &stats,
                                             dedup);
          EXPECT_EQ(report.Render(), reference.Render());
          EXPECT_EQ(report.RenderJson(), reference.RenderJson());
          EXPECT_EQ(stats.failure_points, reference_stats.failure_points);
          EXPECT_EQ(stats.injections, reference_stats.injections);
          if (replay) {
            EXPECT_EQ(stats.replayed, stats.injections);
            EXPECT_GT(stats.replay_trace_bytes, 0u);
            // Replay synthesizes images instead of re-running the workload.
            EXPECT_EQ(stats.executions, 0u);
          } else {
            // One paused execution per lane serves its seq-ordered checks.
            EXPECT_EQ(stats.executions,
                      std::min<uint64_t>(workers, stats.injections));
          }
        }
      }
    }
  }
}

// The -O2 regression guard: parallel replay-mode injection needs no
// call-stack re-matching at injection time, so its report must equal
// serial re-execution's under any optimisation level. CI runs this suite
// in a CMAKE_BUILD_TYPE=Release job.
TEST(ReplayEquivalence, ParallelReplayMatchesSerialUniqueBugSet) {
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  options.bugs = {"btree.split_unlogged"};
  WorkloadSpec spec;
  spec.operations = 250;
  spec.key_space = 40;

  FaultInjectionStats serial_stats, parallel_stats;
  const Report serial = RunInjection("btree", options, spec,
                                     InjectionStrategy::kReExecute, 1,
                                     &serial_stats);
  const Report parallel = RunInjection("btree", options, spec,
                                       InjectionStrategy::kReplay, 4,
                                       &parallel_stats);

  EXPECT_GT(serial.BugCount(), 0u);
  EXPECT_EQ(serial_stats.injections, parallel_stats.injections);
  EXPECT_EQ(parallel.Render(), serial.Render());
  EXPECT_EQ(parallel.RenderJson(), serial.RenderJson());
}

// InjectAll targets the profiled first-hit seqs (and replay needs the
// recorded trace), so an engine that never profiled refuses with a clear
// error instead of guessing — for either strategy.
TEST(ReplayEquivalence, InjectAllRequiresAProfiledEngine) {
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  const WorkloadSpec spec = SmallSpec();

  // The tree comes from a different engine; this engine never profiled.
  FaultInjectionEngine profiler(Factory("btree", options), spec);
  FailurePointTree tree = profiler.Profile();
  ASSERT_GT(tree.FailurePointCount(), 0u);

  for (const InjectionStrategy strategy :
       {InjectionStrategy::kReExecute, InjectionStrategy::kReplay}) {
    FaultInjectionOptions fi;
    fi.strategy = strategy;
    FaultInjectionEngine engine(Factory("btree", options), spec, fi);
    ASSERT_FALSE(engine.profiled());
    FaultInjectionStats stats;
    try {
      engine.InjectAll(&tree, &stats);
      ADD_FAILURE() << "InjectAll ran on an engine that never profiled";
    } catch (const std::logic_error& error) {
      EXPECT_NE(std::string(error.what()).find("Profile()"),
                std::string::npos)
          << error.what();
    }
    // Nothing was checked.
    EXPECT_EQ(stats.injections, 0u);
    EXPECT_EQ(tree.UnvisitedCount(), tree.FailurePointCount());
  }
}

// Image dedup is the one mechanism that skips redundant oracle runs. On the
// flush-heavy log every redundant flush round's crash image equals its
// predecessor's, so a seq-ordered campaign must run the oracle once per
// distinct image — every check after the first of each run of identical
// images is a dedup hit — and report exactly what the dedup-off run does.
TEST(ImageDedup, SkipsEveryRedundantCheckOnTheFlushHeavyLog) {
  WorkloadSpec spec;
  spec.operations = 360;
  spec.key_space = 360;
  spec.put_pct = 100;
  spec.get_pct = 0;
  spec.delete_pct = 0;
  auto run = [&](bool image_dedup, FaultInjectionStats* stats) {
    FaultInjectionOptions fi;
    fi.strategy = InjectionStrategy::kReplay;
    fi.workers = 1;
    fi.image_dedup = image_dedup;
    FaultInjectionEngine engine(
        [] { return std::make_unique<FlushHeavyTarget>(); }, spec, fi);
    FailurePointTree tree = engine.Profile();
    return engine.InjectAll(&tree, stats);
  };
  FaultInjectionStats on_stats, off_stats;
  const Report on = run(true, &on_stats);
  const Report off = run(false, &off_stats);
  EXPECT_EQ(on_stats.injections, 3601u);
  EXPECT_EQ(on_stats.distinct_images, 720u);
  EXPECT_EQ(on_stats.dedup_hits, 2881u);
  EXPECT_EQ(off_stats.injections, 3601u);
  EXPECT_EQ(off_stats.dedup_hits, 0u);
  EXPECT_GT(on.BugCount(), 0u);
  EXPECT_EQ(on.Render(), off.Render());
}

// Ranked dispatch reorders checks, so report ordering is not preserved —
// but the distinct-bug set must be.
TEST(AdaptiveSchedule, RankedDispatchKeepsDistinctBugSet) {
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  options.bugs = {"btree.split_unlogged"};
  WorkloadSpec spec;
  spec.operations = 250;
  spec.key_space = 40;

  auto bug_set = [&](bool rank) {
    FaultInjectionOptions fi;
    fi.strategy = InjectionStrategy::kReplay;
    fi.rank = rank;
    FaultInjectionEngine engine(Factory("btree", options), spec, fi);
    FailurePointTree tree = engine.Profile();
    FaultInjectionStats stats;
    const Report report = engine.InjectAll(&tree, &stats);
    std::set<std::string> details;
    for (const Finding& f : report.findings()) {
      details.insert(f.detail);
    }
    return details;
  };
  const std::set<std::string> exhaustive = bug_set(false);
  EXPECT_FALSE(exhaustive.empty());
  EXPECT_EQ(bug_set(true), exhaustive);
}

// --budget-checks stops dispatch after exactly N checks (cache hits count),
// flags the stop, and the partial stats reflect it.
TEST(AdaptiveSchedule, BudgetChecksStopsDispatchWithinBudget) {
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  const WorkloadSpec spec = SmallSpec();

  for (const uint32_t workers : {1u, 4u}) {
    SCOPED_TRACE(workers);
    FaultInjectionOptions fi;
    fi.strategy = InjectionStrategy::kReplay;
    fi.workers = workers;
    fi.budget_checks = 10;
    FaultInjectionEngine engine(Factory("btree", options), spec, fi);
    FailurePointTree tree = engine.Profile();
    FaultInjectionStats stats;
    engine.InjectAll(&tree, &stats);
    EXPECT_LE(stats.injections, 10u);
    EXPECT_GT(stats.injections, 0u);
    EXPECT_TRUE(stats.budget_stopped);
    EXPECT_TRUE(stats.budget_exhausted);
    EXPECT_GT(stats.failure_points, 10u);  // there was work left to stop
  }
}

}  // namespace
}  // namespace mumak
