// Tests for the observability layer: metrics registry (counters, gauges,
// power-of-two histograms), per-event-kind accounting, the span tracer's
// Chrome trace-event output, the progress reporter, and — crucial for the
// overhead guard — the disabled path where no registry/tracer is wired up.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/baselines/measure.h"
#include "src/core/mumak.h"
#include "src/observability/metrics.h"
#include "src/observability/progress.h"
#include "src/observability/span_tracer.h"
#include "src/pmem/pm_pool.h"
#include "src/targets/target.h"
#include "tests/mini_json.h"

namespace mumak {
namespace {

using testjson::ParseJson;
using testjson::Value;

// -- Histogram bucketing -----------------------------------------------------

TEST(HistogramTest, BucketForIsBitWidth) {
  EXPECT_EQ(Histogram::BucketFor(0), 0u);
  EXPECT_EQ(Histogram::BucketFor(1), 1u);
  EXPECT_EQ(Histogram::BucketFor(2), 2u);
  EXPECT_EQ(Histogram::BucketFor(3), 2u);
  EXPECT_EQ(Histogram::BucketFor(4), 3u);
  EXPECT_EQ(Histogram::BucketFor(7), 3u);
  EXPECT_EQ(Histogram::BucketFor(8), 4u);
  EXPECT_EQ(Histogram::BucketFor(1023), 10u);
  EXPECT_EQ(Histogram::BucketFor(1024), 11u);
  // Everything too wide for a dedicated bucket lands in the last one.
  EXPECT_EQ(Histogram::BucketFor(std::numeric_limits<uint64_t>::max()),
            Histogram::kBuckets - 1);
}

TEST(HistogramTest, BucketBoundsTileTheRange) {
  EXPECT_EQ(Histogram::BucketLowerBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketLowerBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketLowerBound(2), 2u);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 3u);
  EXPECT_EQ(Histogram::BucketLowerBound(3), 4u);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 7u);
  // Consecutive buckets are adjacent: upper(i) + 1 == lower(i + 1).
  for (size_t i = 0; i + 2 < Histogram::kBuckets; ++i) {
    EXPECT_EQ(Histogram::BucketUpperBound(i) + 1,
              Histogram::BucketLowerBound(i + 1))
        << "bucket " << i;
  }
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::kBuckets - 1),
            std::numeric_limits<uint64_t>::max());
  // Every value falls inside its own bucket's bounds.
  for (uint64_t value : {0ull, 1ull, 5ull, 63ull, 64ull, 1ull << 40}) {
    const size_t bucket = Histogram::BucketFor(value);
    EXPECT_GE(value, Histogram::BucketLowerBound(bucket)) << value;
    EXPECT_LE(value, Histogram::BucketUpperBound(bucket)) << value;
  }
}

TEST(HistogramTest, ObserveAccumulatesCountAndSum) {
  Histogram histogram;
  histogram.Observe(0);
  histogram.Observe(1);
  histogram.Observe(2);
  histogram.Observe(3);
  histogram.Observe(100);
  EXPECT_EQ(histogram.count(), 5u);
  EXPECT_EQ(histogram.sum(), 106u);
  EXPECT_EQ(histogram.bucket_count(0), 1u);  // the zero
  EXPECT_EQ(histogram.bucket_count(1), 1u);  // 1
  EXPECT_EQ(histogram.bucket_count(2), 2u);  // 2, 3
  EXPECT_EQ(histogram.bucket_count(7), 1u);  // 100 in [64, 127]
}

// -- Registry ----------------------------------------------------------------

TEST(MetricsRegistryTest, InterningReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("inject.attempted");
  Counter* b = registry.GetCounter("inject.attempted");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, registry.GetCounter("inject.crashed"));
  // Growth (deque arena) must not invalidate earlier pointers.
  for (int i = 0; i < 200; ++i) {
    registry.GetCounter("filler." + std::to_string(i));
  }
  EXPECT_EQ(registry.GetCounter("inject.attempted"), a);
  a->Increment(3);
  EXPECT_EQ(registry.Snapshot().CounterValue("inject.attempted"), 3u);
  EXPECT_EQ(registry.GetGauge("g"), registry.GetGauge("g"));
  EXPECT_EQ(registry.GetHistogram("h"), registry.GetHistogram("h"));
}

TEST(MetricsSnapshotTest, CounterValueDefaultsToZero) {
  MetricsSnapshot snapshot;
  EXPECT_TRUE(snapshot.empty());
  EXPECT_EQ(snapshot.CounterValue("never.registered"), 0u);
}

TEST(MetricsSnapshotTest, RenderJsonRoundTrips) {
  MetricsRegistry registry;
  registry.GetCounter("inject.attempted")->Increment(7);
  registry.GetGauge("fpt.failure_points")->Set(42);
  Histogram* histogram = registry.GetHistogram("inject.run_us");
  histogram->Observe(0);
  histogram->Observe(5);
  histogram->Observe(5);

  Value root;
  ASSERT_TRUE(ParseJson(registry.RenderJson(), &root));
  ASSERT_EQ(root.type, Value::Type::kObject);
  const Value* counters = root.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->Find("inject.attempted")->number, 7);
  EXPECT_EQ(root.Find("gauges")->Find("fpt.failure_points")->number, 42);

  const Value* h = root.Find("histograms")->Find("inject.run_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->Find("count")->number, 3);
  EXPECT_EQ(h->Find("sum")->number, 10);
  // Zero buckets are elided: one bucket for the 0, one for the two 5s.
  const Value* buckets = h->Find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_EQ(buckets->array.size(), 2u);
  EXPECT_EQ(buckets->array[0].Find("le")->number, 0);
  EXPECT_EQ(buckets->array[0].Find("count")->number, 1);
  EXPECT_EQ(buckets->array[1].Find("le")->number, 7);  // 5 is in [4, 7]
  EXPECT_EQ(buckets->array[1].Find("count")->number, 2);
}

TEST(MetricsSnapshotTest, RenderJsonEscapesNames) {
  MetricsRegistry registry;
  registry.GetCounter("weird\"name\\with specials")->Increment();
  Value root;
  ASSERT_TRUE(ParseJson(registry.RenderJson(), &root));
  EXPECT_EQ(root.Find("counters")->Find("weird\"name\\with specials")->number,
            1);
}

// -- Event counting ----------------------------------------------------------

TEST(EventCountersTest, PublishesUnderKindNames) {
  MetricsRegistry registry;
  EventCounters counters(&registry);
  counters.Bump(EventKind::kStore);
  counters.Bump(EventKind::kStore);
  counters.Bump(EventKind::kNtStore);
  counters.Bump(EventKind::kClwb);
  counters.Bump(EventKind::kSfence);
  EXPECT_EQ(counters.count(EventKind::kStore), 2u);
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterValue("pm.events.store"), 2u);
  EXPECT_EQ(snapshot.CounterValue("pm.events.nt-store"), 1u);
  EXPECT_EQ(snapshot.CounterValue("pm.events.clwb"), 1u);
  EXPECT_EQ(snapshot.CounterValue("pm.events.sfence"), 1u);
  EXPECT_EQ(snapshot.CounterValue("pm.events.mfence"), 0u);
}

TEST(CountingSinkTest, CountsThePublishedStream) {
  MetricsRegistry registry;
  EventCounters counters(&registry);
  CountingSink sink(&counters);
  EventHub hub;
  ScopedSink attach(hub, &sink);
  PmEvent ev;
  ev.kind = EventKind::kClflush;
  hub.Publish(ev);
  ev.kind = EventKind::kMfence;
  hub.Publish(ev);
  hub.Publish(ev);
  EXPECT_EQ(registry.Snapshot().CounterValue("pm.events.clflush"), 1u);
  EXPECT_EQ(registry.Snapshot().CounterValue("pm.events.mfence"), 2u);
}

TEST(PmPoolTest, CountsEventsWhenCountersAttached) {
  MetricsRegistry registry;
  EventCounters counters(&registry);
  PmPool pool(4096);
  pool.set_event_counters(&counters);
  pool.WriteU64(0, 1);
  pool.WriteU64(8, 2);
  pool.Clwb(0);
  pool.Sfence();
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterValue("pm.events.store"), 2u);
  EXPECT_EQ(snapshot.CounterValue("pm.events.clwb"), 1u);
  EXPECT_EQ(snapshot.CounterValue("pm.events.sfence"), 1u);
}

TEST(PmPoolTest, NullCountersIsTheDefaultAndSafe) {
  // The disabled path: no registry anywhere near the pool, events still
  // publish to sinks, nothing crashes, nothing is counted.
  PmPool pool(4096);
  pool.WriteU64(0, 1);
  pool.Clwb(0);
  pool.Sfence();
  pool.set_event_counters(nullptr);
  pool.WriteU64(8, 2);
}

// -- Span tracer -------------------------------------------------------------

TEST(SpanTracerTest, EscapeJson) {
  EXPECT_EQ(SpanTracer::EscapeJson("plain"), "plain");
  EXPECT_EQ(SpanTracer::EscapeJson("a\"b"), "a\\\"b");
  EXPECT_EQ(SpanTracer::EscapeJson("a\\b"), "a\\\\b");
  EXPECT_EQ(SpanTracer::EscapeJson("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(SpanTracer::EscapeJson(std::string("a\x01z")), "a\\u0001z");
}

TEST(SpanTracerTest, ScopedSpanRecordsOnDestruction) {
  SpanTracer tracer;
  {
    ScopedSpan span(&tracer, "inject", "injection", 2);
    span.AddArg("failure_point", uint64_t{17});
    span.AddArg("status", "ok");
    EXPECT_EQ(tracer.size(), 0u);  // open span not yet recorded
  }
  ASSERT_EQ(tracer.size(), 1u);
  const SpanEvent event = tracer.Events()[0];
  EXPECT_EQ(event.name, "inject");
  EXPECT_EQ(event.category, "injection");
  EXPECT_EQ(event.tid, 2u);
  ASSERT_EQ(event.args.size(), 2u);
  EXPECT_EQ(event.args[0].first, "failure_point");
  EXPECT_EQ(event.args[0].second, "17");
  EXPECT_EQ(event.args[1].second, "ok");
}

TEST(SpanTracerTest, NullTracerIsANoop) {
  ScopedSpan span(nullptr, "profile");
  span.AddArg("k", "v");
  span.AddArg("n", uint64_t{1});
  // Destruction must not touch anything.
}

TEST(SpanTracerTest, WriteJsonIsChromeTraceFormat) {
  SpanTracer tracer;
  {
    ScopedSpan phase(&tracer, "profile");
    ScopedSpan run(&tracer, "inject", "injection", 1);
    run.AddArg("failure_point", uint64_t{3});
  }
  std::ostringstream out;
  tracer.WriteJson(out);

  Value root;
  ASSERT_TRUE(ParseJson(out.str(), &root)) << out.str();
  EXPECT_EQ(root.Find("displayTimeUnit")->string, "ms");
  const Value* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->type, Value::Type::kArray);

  size_t metadata = 0, complete = 0;
  bool saw_pipeline_lane = false, saw_worker_lane = false, saw_args = false;
  for (const Value& event : events->array) {
    const std::string& ph = event.Find("ph")->string;
    EXPECT_EQ(event.Find("pid")->number, 1);
    if (ph == "M") {
      ++metadata;
      EXPECT_EQ(event.Find("name")->string, "thread_name");
      const std::string& lane = event.Find("args")->Find("name")->string;
      saw_pipeline_lane |= lane == "pipeline";
      saw_worker_lane |= lane == "inject-worker-1";
    } else {
      ASSERT_EQ(ph, "X");
      ++complete;
      EXPECT_NE(event.Find("ts"), nullptr);
      EXPECT_NE(event.Find("dur"), nullptr);
      if (event.Find("name")->string == "inject") {
        EXPECT_EQ(event.Find("tid")->number, 1);
        EXPECT_EQ(event.Find("args")->Find("failure_point")->string, "3");
        saw_args = true;
      }
    }
  }
  EXPECT_EQ(metadata, 2u);  // tid 0 and tid 1
  EXPECT_EQ(complete, 2u);
  EXPECT_TRUE(saw_pipeline_lane);
  EXPECT_TRUE(saw_worker_lane);
  EXPECT_TRUE(saw_args);
}

TEST(SpanTracerTest, WriteFileProducesAReadableFile) {
  SpanTracer tracer;
  { ScopedSpan span(&tracer, "trace_analysis"); }
  const std::string path = ::testing::TempDir() + "/spans.json";
  ASSERT_TRUE(tracer.WriteFile(path));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  Value root;
  EXPECT_TRUE(ParseJson(buffer.str(), &root));
}

// -- Progress reporter -------------------------------------------------------

TEST(ProgressReporterTest, PaintsPhaseAndCompletion) {
  FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  ProgressReporter reporter(out);
  reporter.set_min_interval_ms(0);
  reporter.BeginPhase("inject", 4,
                      std::numeric_limits<double>::infinity());
  for (int i = 0; i < 4; ++i) {
    reporter.Advance();
  }
  EXPECT_EQ(reporter.done(), 4u);
  reporter.EndPhase();
  std::fflush(out);
  std::rewind(out);
  std::string text(4096, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), out));
  std::fclose(out);
  EXPECT_NE(text.find("inject"), std::string::npos) << text;
  EXPECT_NE(text.find("4/4"), std::string::npos) << text;
  EXPECT_NE(text.find("100"), std::string::npos) << text;  // 100%
  EXPECT_EQ(text.back(), '\n');  // EndPhase terminates the line
}

TEST(ProgressReporterTest, FlagsBudgetOverrun) {
  FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  ProgressReporter reporter(out);
  reporter.set_min_interval_ms(0);
  // A zero-second budget cannot possibly cover the remaining work.
  reporter.BeginPhase("inject", 1000000, /*budget_s=*/0.0);
  reporter.Advance();
  reporter.EndPhase();
  std::fflush(out);
  std::rewind(out);
  std::string text(4096, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), out));
  std::fclose(out);
  EXPECT_NE(text.find("budget"), std::string::npos) << text;
}

// -- Baseline stats bridge ---------------------------------------------------

TEST(PublishToolRunStatsTest, PublishesTable2Gauges) {
  MetricsRegistry registry;
  ToolRunStats stats;
  stats.elapsed_s = 1.5;
  stats.units_explored = 321;
  stats.resources.tool_bytes = 4096;
  stats.resources.ram_multiplier = 2.5;
  stats.resources.pm_multiplier = 1.0;
  stats.resources.cpu_load = 1.25;
  stats.timed_out = true;
  PublishToolRunStats(&registry, "pmemcheck", stats);
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.gauges.at("tool.pmemcheck.elapsed_us"), 1500000u);
  EXPECT_EQ(snapshot.gauges.at("tool.pmemcheck.units_explored"), 321u);
  EXPECT_EQ(snapshot.gauges.at("tool.pmemcheck.tool_bytes"), 4096u);
  EXPECT_EQ(snapshot.gauges.at("tool.pmemcheck.ram_multiplier_x1000"), 2500u);
  EXPECT_EQ(snapshot.gauges.at("tool.pmemcheck.pm_multiplier_x1000"), 1000u);
  EXPECT_EQ(snapshot.gauges.at("tool.pmemcheck.cpu_load_x1000"), 1250u);
  EXPECT_EQ(snapshot.gauges.at("tool.pmemcheck.timed_out"), 1u);
  // Null registry is a no-op, not a crash.
  PublishToolRunStats(nullptr, "pmemcheck", stats);
}

// -- Pipeline integration ----------------------------------------------------

MumakOptions SmallRunOptions() {
  MumakOptions options;
  return options;
}

WorkloadSpec SmallSpec() {
  WorkloadSpec spec;
  spec.operations = 300;
  spec.key_space = 64;
  return spec;
}

TEST(PipelineObservabilityTest, DisabledPathLeavesResultEmpty) {
  // The zero-overhead guard, observed end to end: a run with no registry,
  // tracer or reporter produces an empty metrics snapshot and no spans.
  Mumak mumak([] { return CreateTarget("btree", TargetOptions{}); },
              SmallSpec(), SmallRunOptions());
  const MumakResult result = mumak.Analyze();
  EXPECT_TRUE(result.metrics.empty());
}

// Both strategies, inline and on four lanes: every lane runs the same range
// worker, so the accounting below holds for every driver.
TEST(PipelineObservabilityTest, MetricsAndSpansCoverTheRun) {
  for (const InjectionStrategy strategy :
       {InjectionStrategy::kReExecute, InjectionStrategy::kReplay}) {
    for (const uint32_t workers : {1u, 4u}) {
      SCOPED_TRACE(std::string(strategy == InjectionStrategy::kReplay
                                   ? "replay"
                                   : "reexec") +
                   " workers " + std::to_string(workers));
      MetricsRegistry registry;
      SpanTracer tracer;
      MumakOptions options = SmallRunOptions();
      options.metrics = &registry;
      options.tracer = &tracer;
      options.injection_strategy = strategy;
      options.injection_workers = workers;
      Mumak mumak([] { return CreateTarget("btree", TargetOptions{}); },
                  SmallSpec(), options);
      const MumakResult result = mumak.Analyze();

      // The acceptance counters: PM events by type, injections, recovery
      // outcomes — all non-zero on a real btree run.
      EXPECT_GT(result.metrics.CounterValue("pm.events.store"), 0u);
      EXPECT_GT(result.metrics.CounterValue("pm.events.clwb") +
                    result.metrics.CounterValue("pm.events.clflush") +
                    result.metrics.CounterValue("pm.events.clflushopt"),
                0u);
      EXPECT_GT(result.metrics.CounterValue("pm.events.sfence") +
                    result.metrics.CounterValue("pm.events.mfence"),
                0u);
      EXPECT_GT(result.metrics.CounterValue("inject.attempted"), 0u);
      // Every crash triggers the recovery oracle; the last execution of a
      // run may complete without crashing (an attempt with no recovery).
      const uint64_t recoveries =
          result.metrics.CounterValue("recovery.ok") +
          result.metrics.CounterValue("recovery.unrecoverable") +
          result.metrics.CounterValue("recovery.crashed");
      EXPECT_GT(recoveries, 0u);
      // Image dedup (on by default) attributes some crashes' verdicts from
      // the verdict cache instead of running recovery: every crash is
      // either a fresh oracle run or a cache hit.
      const uint64_t dedup_hits =
          result.metrics.CounterValue("inject.image_dedup_hits");
      EXPECT_EQ(recoveries + dedup_hits,
                result.metrics.CounterValue("inject.crashed"));
      if (workers == 1) {
        EXPECT_EQ(recoveries,
                  result.metrics.CounterValue("inject.distinct_images"));
      } else {
        // A twin image checked concurrently in another lane runs the
        // oracle again but is cached once.
        EXPECT_GE(recoveries,
                  result.metrics.CounterValue("inject.distinct_images"));
      }
      EXPECT_LE(recoveries, result.metrics.CounterValue("inject.attempted"));
      EXPECT_GT(result.metrics.gauges.at("fpt.failure_points"), 0u);
      // Profiling records the stack table finding locations resolve in.
      EXPECT_GT(result.metrics.gauges.at("profile.stack_table_entries"), 0u);
      EXPECT_GT(result.metrics.gauges.at("profile.stack_table_bytes"), 0u);
      EXPECT_GT(result.metrics.gauges.at("profile.distinct_stacks"), 0u);
      // inject.run_us times each check once, cache hits included.
      ASSERT_NE(result.metrics.histograms.find("inject.run_us"),
                result.metrics.histograms.end());
      EXPECT_EQ(result.metrics.histograms.at("inject.run_us").count,
                result.metrics.CounterValue("inject.crashed"));
      // inject.image_us times each check's image request, inside run_us.
      ASSERT_NE(result.metrics.histograms.find("inject.image_us"),
                result.metrics.histograms.end());
      EXPECT_EQ(result.metrics.histograms.at("inject.image_us").count,
                result.metrics.CounterValue("inject.crashed"));
      EXPECT_LE(result.metrics.histograms.at("inject.image_us").sum,
                result.metrics.histograms.at("inject.run_us").sum);
      // inject.image_pages records each checked image's footprint once.
      ASSERT_NE(result.metrics.histograms.find("inject.image_pages"),
                result.metrics.histograms.end());
      EXPECT_EQ(result.metrics.histograms.at("inject.image_pages").count,
                result.metrics.CounterValue("inject.crashed"));
      EXPECT_GT(result.metrics.histograms.at("inject.image_pages").sum, 0u);
      // Profiling records the trace once, as an in-memory v3 stream; only
      // replay cursors decode it during injection, a forward pass decoding
      // each block at most once per lane.
      const uint64_t trace_blocks =
          result.metrics.gauges.at("profile.trace_blocks");
      EXPECT_GT(trace_blocks, 0u);
      EXPECT_GT(result.metrics.gauges.at("profile.trace_bytes"), 0u);
      const uint64_t decoded =
          result.metrics.CounterValue("inject.trace_blocks_decoded");
      if (strategy == InjectionStrategy::kReplay) {
        EXPECT_GT(decoded, 0u);
        EXPECT_LE(decoded, trace_blocks * (workers + 1));
      } else {
        EXPECT_EQ(decoded, 0u);
      }

      // One span per pipeline phase plus per-injection spans.
      bool saw_profile = false, saw_inject_phase = false,
           saw_analysis = false;
      size_t injection_spans = 0;
      for (const SpanEvent& event : tracer.Events()) {
        // The workload runs once outside injection: no vanilla baseline
        // and no backtrace re-execution.
        EXPECT_NE(event.name, "vanilla_baseline");
        EXPECT_NE(event.name, "resolve_backtraces");
        saw_profile |= event.name == "profile";
        saw_inject_phase |=
            event.name == "inject" && event.category == "phase";
        saw_analysis |= event.name == "trace_analysis";
        injection_spans += event.category == "injection";
      }
      EXPECT_TRUE(saw_profile);
      EXPECT_TRUE(saw_inject_phase);
      EXPECT_TRUE(saw_analysis);
      EXPECT_EQ(injection_spans,
                result.metrics.CounterValue("inject.attempted"));

      // Trace-analysis pattern counters at least cover what the report
      // holds.
      uint64_t pattern_hits = 0;
      for (const auto& [name, value] : result.metrics.counters) {
        if (name.rfind("trace.pattern.", 0) == 0) {
          pattern_hits += value;
        }
      }
      EXPECT_GE(pattern_hits, result.report.findings().size() > 0 ? 1u : 0u);
    }
  }
}

}  // namespace
}  // namespace mumak
