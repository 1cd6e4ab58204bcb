// The injection pipeline: the paper's §4.1 loop (crash at each unique
// failure point, run the application's own recovery as the oracle) as four
// stages that every driver shares. The drivers are the engine's inline and
// threaded InjectAll, fleet worker processes, and the fleet scheduler's
// inline fallback.
//
//   Plan          InjectionCampaign: resume, the seq-sorted schedule, the
//                 rank plan, ranges sized for the image source, and
//                 one budget/cancel gate that reserves each check at
//                 dispatch.
//   ImageSource   the graceful crash image at a point: the lane's paused
//                 workload execution, resumed to the point's seq, or the
//                 lane's replay cursor, which restores its own checkpoints
//                 when the order steps back. Serves any seq order.
//   Check         RunCheck: one verdict-cache probe, then the recovery
//                 oracle in-process or in a sandbox slot. The output is one
//                 JournalVerdict, inserted into the cache under its image
//                 digest when it was fresh.
//   Record+Merge  InjectionCampaign::Record per verdict (visited flag,
//                 journal, counters, progress), then
//                 InjectionCampaign::Finish: the seq-ordered first-wins
//                 fold into the report, stats and the cache epilogue.
//
// RunRange is the range worker that chains ImageSource -> Check -> a
// caller-supplied sink over one slice of the plan.
//
// Why any worker count yields the same report: report dedup keys on the
// verdict detail and keeps the lowest-seq occurrence, and a verdict cached
// this run is trusted only when it was first checked at a lower seq. So the
// report depends on the schedule and the deterministic oracle alone, not
// on which lane checked what or in which order. It is byte-identical to the
// reference loop (ReferenceInjectAll) at any worker count, range split or
// dispatch order.

#ifndef MUMAK_SRC_CORE_INJECTION_PIPELINE_H_
#define MUMAK_SRC_CORE_INJECTION_PIPELINE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "src/core/fault_injection.h"
#include "src/core/verdict_cache.h"
#include "src/observability/journal.h"
#include "src/observability/metrics.h"
#include "src/pmem/pm_pool.h"
#include "src/pmem/pool_medium.h"
#include "src/pmem/replay_cursor.h"

namespace mumak {

// Injection-phase instruments, resolved once per campaign so the per-check
// code does a pointer check plus a relaxed add, never a name lookup. Every
// pointer is null when the registry is (fleet worker processes report
// through the scheduler instead).
struct InjectionMetrics {
  explicit InjectionMetrics(MetricsRegistry* registry);

  MetricsRegistry* registry = nullptr;
  Counter* attempted = nullptr;
  Counter* crashed = nullptr;
  Counter* deduplicated = nullptr;
  Counter* dedup_hits = nullptr;
  Counter* distinct_images = nullptr;
  Counter* dedup_collisions = nullptr;
  Counter* budget_stops = nullptr;
  Counter* recovery_ok = nullptr;  // recovery.* count oracle runs by status
  Counter* recovery_unrecoverable = nullptr;
  Counter* recovery_crashed = nullptr;
  Counter* recovery_timeout = nullptr;
  Histogram* run_us = nullptr;
  Histogram* image_us = nullptr;
  Histogram* recovery_us = nullptr;
  Histogram* digest_us = nullptr;
  Histogram* image_pages = nullptr;
};

// Where a range worker's crash images come from. A source keeps one lane
// medium across its checks, so a check maps no memory.
class ImageSource {
 public:
  // Re-execution: one instrumented workload execution, on its own thread,
  // pauses at each point's profiled first-hit seq; the graceful image of
  // the paused model is copied into the lane medium
  // (PersistencyModel::GracefulImageInto). A graceful image is the
  // program-order prefix at its point, so it equals the image of an
  // execution restarted and crashed there. Seq-ordered points cost one
  // execution in total; a point at or behind the paused seq discards the
  // execution and starts a fresh one.
  ImageSource(TargetFactory factory, WorkloadSpec spec);
  // Replay: images synthesized by one replay cursor over `trace`, which
  // must outlive the source, with `seek_checkpoints` checkpoints of its own
  // (ReplayCursor). The digest is tracked incrementally when
  // `track_digest` is set.
  ImageSource(const TraceStream& trace, size_t pool_size, bool track_digest,
              uint32_t seek_checkpoints);
  // Stops a paused execution (it unwinds as from a crash) and joins it.
  ~ImageSource();

  // Makes the graceful image at `point` current. Any seq order works: the
  // replay cursor restores a checkpoint when it must step back, and a
  // paused execution past the point is restarted.
  // False when an execution finished without reaching the point (cannot
  // happen on a deterministic target). An exception the target throws
  // while executing is rethrown here.
  bool Produce(const ReplayPoint& point);

  const PoolMedium& image() const;
  ImageDigest Digest() const;
  // A pool over the lane medium holding the current image (the cursor's is
  // copied in), for an in-process oracle. image() is stale afterwards.
  PmPool OraclePool();

  bool replays() const { return cursor_ != nullptr; }
  // Workload executions started (0 under replay).
  uint64_t executions() const { return executions_; }
  // Trace events the replay cursor's checkpoint restores skipped, and
  // trace blocks it decoded (both 0 under re-execution).
  uint64_t seek_skipped_events() const {
    return replays() ? cursor_->seek_skipped_events() : 0;
  }
  uint64_t blocks_decoded() const {
    return replays() ? cursor_->blocks_decoded() : 0;
  }

 private:
  class Execution;

  PoolMedium medium_;  // the lane medium
  // Re-execution.
  TargetFactory factory_;
  WorkloadSpec spec_;
  std::unique_ptr<Execution> execution_;
  uint64_t executions_ = 0;
  // Replay.
  std::unique_ptr<ReplayCursor> cursor_;
};

// What one lane's checks run against. `lane` is both the sandbox slot and
// the span lane (tid lane + 1).
struct CheckEnv {
  TargetFactory factory;
  RecoverySandbox* sandbox = nullptr;  // null: the oracle runs in-process
  uint32_t lane = 0;
  // The process's verdict cache, shared across lanes (VerdictCache::Lookup
  // says which entries it honours); null when image dedup is off.
  VerdictCache* cache = nullptr;
  InjectionMetrics metrics{nullptr};
  SpanTracer* tracer = nullptr;
};

// The Check stage's output. `verdict` carries seq, status, detail and
// evidence; the location and worker lane are stamped by Record. `fresh`:
// the verdict was inserted under `digest` (a fleet worker sends it along).
struct CheckResult {
  JournalVerdict verdict;
  bool fresh = false;
  ImageDigest digest;
};

// Check: probes the cache for the image `source` holds for `point`, runs
// the recovery oracle unless a cached verdict is honoured, and caches a
// fresh verdict.
CheckResult RunCheck(const CheckEnv& env, const ReplayPoint& point,
                     ImageSource* source);

// What a range worker does before each point.
enum class PointAction { kRun, kSkip, kStop };

// The range worker: for each i in [begin, end), asks `before(i, &end)`
// (the budget gate, a fleet worker's steal/heartbeat/shutdown handling, the
// scheduler fallback's already-delivered skip; it may lower `end`), then
// produces the image, checks it and hands the result to `after(i, ...)`.
// Observes inject.run_us once per check, from the image request to the
// recorded verdict, and inject.image_us, the image request alone. Returns
// false when `before` stopped the range.
bool RunRange(const CheckEnv& env, const std::vector<ReplayPoint>& points,
              size_t begin, size_t end, ImageSource* source,
              const std::function<PointAction(size_t, size_t*)>& before,
              const std::function<void(size_t, CheckResult)>& after);

// A contiguous slice [begin, end) of a campaign's checks.
struct CheckRange {
  size_t begin = 0;
  size_t end = 0;
};

// One campaign's Plan, Record and Merge state, shared by every driver.
// Record, Reserve and the accessors are thread-safe.
class InjectionCampaign {
 public:
  // Plans the injection of `tree`'s unvisited failure points for up to
  // `workers` lanes: loads the --verdict-cache file, applies
  // --resume-journal, builds the schedule and the rank plan, and
  // splits the checks into ranges. With a replay trace a range is a
  // seq-contiguous shard (`shards`; 0 = one range for one lane, four per
  // lane otherwise); under re-execution every check is its own range: lanes
  // pull ranges in seq order, so each lane's paused execution only moves
  // forward.
  // Throws std::logic_error unless Profile() ran on `engine`.
  InjectionCampaign(FaultInjectionEngine* engine, FailurePointTree* tree,
                    FaultInjectionStats* stats, uint32_t workers,
                    size_t shards = 0);

  // The checks, in dispatch order (seq order unless --rank), and the
  // ranges over them, in the order drivers hand them out.
  const std::vector<ReplayPoint>& points() const { return points_; }
  const std::vector<CheckRange>& ranges() const { return ranges_; }
  uint32_t lanes() const { return lanes_; }
  // A lane's check environment over this campaign's cache and metrics.
  CheckEnv MakeEnv(uint32_t lane, RecoverySandbox* sandbox);
  // The campaign's verdict cache; null when image dedup is off.
  VerdictCache* cache() { return cache_ ? &*cache_ : nullptr; }

  // The budget/cancel gate. Reserve() takes one check slot at dispatch, so
  // --budget-checks stops at exactly its count however many lanes race;
  // false once dispatch must stop. Expired() checks only cancellation and
  // the time budget (for callers that wait, not dispatch). Both flag the
  // stop for Finish.
  bool Reserve();
  bool Expired();

  // Record: files the verdict of check `index`, delivered by lane
  // `worker`: stamps seq, worker and location, marks the point visited,
  // journals dispatch + verdict, counts it and advances progress. The first
  // delivery wins; a duplicate (a re-queued fleet range) returns false and
  // changes nothing.
  bool Record(size_t index, JournalVerdict verdict, uint32_t worker);
  bool recorded(size_t index) const;
  size_t recorded_count() const;

  // Merge: folds the recorded and resumed verdicts into the report
  // (JournalReplay::FoldVerdicts), fills `stats` and runs the verdict-cache
  // epilogue (save, gauges). `worker_collisions` adds digest
  // collisions counted in fleet worker processes.
  Report Finish(uint64_t worker_collisions = 0);

 private:
  FaultInjectionEngine* engine_;
  FailurePointTree* tree_;
  FaultInjectionStats* stats_;
  const FaultInjectionOptions& options_;
  InjectionMetrics metrics_;
  std::chrono::steady_clock::time_point start_;
  bool replay_ = false;
  std::optional<VerdictCache> cache_;

  std::vector<ReplayPoint> points_;
  std::vector<CheckRange> ranges_;
  uint32_t lanes_ = 1;

  std::atomic<uint64_t> reserved_{0};
  std::atomic<bool> exhausted_{false};
  std::atomic<bool> budget_stopped_{false};

  mutable std::mutex mutex_;  // guards everything below, the tree and stats
  std::vector<JournalVerdict> verdicts_;
  std::vector<uint8_t> have_;
  size_t recorded_ = 0;
  std::vector<Counter*> worker_counters_;
};

}  // namespace mumak

#endif  // MUMAK_SRC_CORE_INJECTION_PIPELINE_H_
