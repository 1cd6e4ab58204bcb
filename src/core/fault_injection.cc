#include "src/core/fault_injection.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <exception>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/injection_pipeline.h"
#include "src/core/resource_stats.h"
#include "src/pmem/image_digest.h"
#include "src/pmem/replay_cursor.h"

namespace mumak {
namespace {

// Order-sensitive fold of the profiled PM event stream — the persistent
// verdict cache's staleness key. Any change to the workload's persistent
// behaviour (event kinds, placement, sizes, written bytes, pool size)
// changes the fingerprint and invalidates the on-disk cache; incidental
// changes (binary layout, site ids, timing) do not.
class TraceFingerprintSink : public EventSink {
 public:
  void OnEvent(const PmEvent& event) override {
    hash_ = DigestMix64(hash_ ^ (static_cast<uint64_t>(event.kind) |
                                 (uint64_t{event.size} << 8)));
    hash_ = DigestMix64(hash_ ^ event.offset);
    if (event.has_payload()) {
      size_t at = 0;
      while (at + sizeof(uint64_t) <= event.size) {
        uint64_t word = 0;
        std::memcpy(&word, event.payload + at, sizeof(word));
        hash_ = DigestMix64(hash_ ^ word);
        at += sizeof(word);
      }
      if (at < event.size) {
        uint64_t word = 0;
        std::memcpy(&word, event.payload + at, event.size - at);
        hash_ = DigestMix64(hash_ ^ word);
      }
    }
  }

  uint64_t Finish(size_t pool_size) const {
    return DigestMix64(hash_ ^ pool_size);
  }

 private:
  uint64_t hash_ = 0x5851f42d4c957f2dull;
};

// Profiling's by-products for the rest of the campaign, recorded at every
// event: the shadow stack id into the stack table, and the volatile
// footprint every 1024th event, sampled as a vanilla run's would be.
class ProfileRecorder : public EventSink {
 public:
  ProfileRecorder(const PmPool* pool, StackTable* stacks)
      : pool_(pool), stacks_(stacks) {}

  void OnEvent(const PmEvent& event) override {
    stacks_->Record(event.seq, ShadowCallStack::Current().id());
    if ((event.seq & 0x3ff) == 0) {
      footprint.Sample(pool_->model().VolatileFootprintBytes());
    }
  }

  PeakMemoryTracker footprint;

 private:
  const PmPool* pool_;
  StackTable* stacks_;
};

}  // namespace

void FailurePointSink::OnEvent(const PmEvent& event) {
  if (mode_ == Mode::kInjectAt) {
    // Instruction-counter targeting: deterministic executions make the
    // profiled seq identify the same dynamic point, with no call-stack
    // re-matching (stable under -O2 inlining, unlike site identity).
    if (event.seq == target_seq_) {
      throw CrashSignal{inject_target_, event.seq};
    }
    return;
  }
  if (granularity_ == FailurePointGranularity::kStore) {
    if (IsStore(event.kind)) {
      HandleFailurePoint(event);
    }
    return;
  }
  if (IsStore(event.kind)) {
    store_since_failure_point_ = true;
    return;
  }
  if (!IsPersistencyInstruction(event.kind)) {
    return;
  }
  if (!store_since_failure_point_) {
    return;  // equivalent post-failure state, elided (§4.1)
  }
  store_since_failure_point_ = false;
  HandleFailurePoint(event);
}

void FailurePointSink::HandleFailurePoint(const PmEvent& event) {
  // Failure point identity = shadow call stack + instruction site.
  const ShadowCallStack& stack = ShadowCallStack::Current();
  const auto [slot, first] =
      nodes_.TryEmplace((uint64_t{stack.id()} << 32) | event.site);
  if (first) {
    std::vector<FrameId> path(stack.frames().begin(), stack.frames().end());
    path.push_back(event.site);
    *slot = tree_->Insert(path);
  }
  const FailurePointTree::NodeIndex node = *slot;
  if (mode_ == Mode::kProfile) {
    if (first && first_seq_out_ != nullptr) {
      // First hit wins; the serial injection loop crashes each unique path
      // at its first occurrence, so replaying at the first-hit seq
      // reproduces exactly that crash image.
      first_seq_out_->emplace(node, event.seq);
    }
    return;
  }
  if (!tree_->IsVisited(node)) {
    tree_->MarkVisited(node);
    throw CrashSignal{node, event.seq};
  }
}

FaultInjectionEngine::FaultInjectionEngine(TargetFactory factory,
                                           WorkloadSpec spec,
                                           FaultInjectionOptions options)
    : factory_(std::move(factory)), spec_(spec), options_(options) {}

void FaultInjectionEngine::ExecuteWorkload(Target& target, PmPool& pool,
                                           const WorkloadSpec& spec) {
  target.Setup(pool);
  WorkloadGenerator generator(spec);
  while (!generator.Done()) {
    target.Execute(pool, generator.Next());
  }
  target.Finish(pool);
}

FailurePointTree FaultInjectionEngine::Profile(EventSink* trace) {
  ScopedSpan span(options_.tracer, "profile");
  FailurePointTree tree;
  TargetPtr target = factory_();
  PmPool pool(target->DefaultPoolSize());
  // Per-EventKind accounting of the instrumented execution's PM stream
  // (the profiling run sees every event exactly once, so its counts are
  // the workload's event mix).
  std::optional<EventCounters> counters;
  if (options_.metrics != nullptr) {
    counters.emplace(options_.metrics);
    pool.set_event_counters(&*counters);
  }
  FailurePointSink sink(&tree, FailurePointSink::Mode::kProfile,
                        options_.granularity);
  first_seq_.clear();
  sink.set_first_seq_out(&first_seq_);
  stack_table_ = StackTable();
  ProfileRecorder recorder(&pool, &stack_table_);
  ScopedSink attach_recorder(pool.hub(), &recorder);
  // The trace stream: every event, plus under the replay strategy the
  // bytes each store wrote — the complete input for synthesizing crash
  // images without re-executing (ReplayCursor) — and without them the
  // input trace analysis reads.
  const bool replay = options_.strategy == InjectionStrategy::kReplay;
  replay_ready_ = false;
  TraceStreamWriter recorded(replay, options_.trace_block_events);
  ScopedSink attach_recorded(pool.hub(), &recorded);
  // Persistent verdict cache / campaign journal: fingerprint the event
  // stream while it is being produced. The same order-sensitive hash is
  // the staleness key for --verdict-cache and the resume cross-check for
  // --resume-journal (a journal written against a different persistent
  // behaviour must not seed skips).
  fingerprint_ready_ = false;
  std::optional<TraceFingerprintSink> fingerprint;
  if (!options_.verdict_cache_path.empty() || options_.journal != nullptr ||
      options_.resume != nullptr) {
    fingerprint.emplace();
    pool.hub().AddSink(&*fingerprint);
  }
  ScopedSink attach_sink(pool.hub(), &sink);
  if (trace != nullptr) {
    pool.hub().AddSink(trace);
  }
  ExecuteWorkload(*target, pool, spec_);
  if (trace != nullptr) {
    pool.hub().RemoveSink(trace);
  }
  recorder.footprint.Sample(pool.model().VolatileFootprintBytes());
  footprint_peak_ = recorder.footprint.peak();
  stack_table_.Freeze(ShadowCallStack::Current());
  // Joins the builder thread: the stream is complete and immutable before
  // anything forks or reads it.
  replay_trace_ = recorded.Finish();
  profiled_pool_size_ = pool.size();
  replay_ready_ = replay;
  span.AddArg("trace_bytes", replay_trace_.FootprintBytes());
  // Ranking input: per-epoch store counts over the recorded trace, one per
  // failure point (the epoch boundaries are the sorted first-hit seqs — a
  // superset of any later schedule, so the summaries stay valid after
  // resume removes points).
  epoch_summaries_.clear();
  if (options_.rank && replay_ready_) {
    std::vector<uint64_t> boundaries;
    boundaries.reserve(first_seq_.size());
    for (const auto& entry : first_seq_) {
      boundaries.push_back(entry.second);
    }
    std::sort(boundaries.begin(), boundaries.end());
    epoch_summaries_ = SummarizeEpochs(replay_trace_, boundaries);
  }
  if (fingerprint.has_value()) {
    pool.hub().RemoveSink(&*fingerprint);
    trace_fingerprint_ = fingerprint->Finish(pool.size());
    fingerprint_ready_ = true;
    span.AddArg("trace_fingerprint", trace_fingerprint_);
  }
  if (options_.metrics != nullptr) {
    options_.metrics->GetGauge("fpt.failure_points")
        ->Set(tree.FailurePointCount());
    options_.metrics->GetGauge("fpt.bytes")->Set(tree.FootprintBytes());
    options_.metrics->GetGauge("profile.pm_events")->Set(pool.hub().seq());
    options_.metrics->GetGauge("profile.trace_blocks")
        ->Set(replay_trace_.blocks());
    options_.metrics->GetGauge("profile.trace_bytes")
        ->Set(replay_trace_.FootprintBytes());
    options_.metrics->GetGauge("profile.stack_table_entries")
        ->Set(stack_table_.entries());
    options_.metrics->GetGauge("profile.stack_table_bytes")
        ->Set(stack_table_.FootprintBytes());
    options_.metrics->GetGauge("profile.distinct_stacks")
        ->Set(stack_table_.distinct_stacks());
  }
  span.AddArg("failure_points", tree.FailurePointCount());
  span.AddArg("pm_events", pool.hub().seq());
  if (options_.journal != nullptr) {
    options_.journal->WriteProfile(trace_fingerprint_,
                                   tree.FailurePointCount(),
                                   pool.hub().seq());
  }
  profiled_ = true;
  return tree;
}

Report FaultInjectionEngine::InjectAll(FailurePointTree* tree,
                                       FaultInjectionStats* stats) {
  InjectionCampaign campaign(this, tree, stats, options_.workers);
  const std::vector<CheckRange>& ranges = campaign.ranges();
  const uint32_t lanes = campaign.lanes();
  // One sandbox per campaign, built here while the process is still
  // single-threaded (the fork-server pool forks its initial workers in the
  // constructor). Slots map 1:1 onto lanes.
  std::optional<RecoverySandbox> sandbox;
  if (options_.sandbox.policy != SandboxPolicy::kInProcess) {
    SandboxOptions sandbox_options = options_.sandbox;
    sandbox_options.metrics = options_.metrics;
    sandbox_options.tracer = options_.tracer;
    sandbox.emplace(factory_,
                    replay_ready_ ? profiled_pool_size_
                                  : factory_()->DefaultPoolSize(),
                    lanes, sandbox_options);
  }
  // Lane i starts on range i, then lanes pull ranges off one shared
  // counter, so every lane gets work and each lane's ranges rise in seq
  // order. Each runs the range worker with the budget gate in front of
  // every point. The first exception a lane throws stops every lane and
  // is rethrown here, as at one lane.
  std::atomic<size_t> next_range{lanes};
  std::atomic<uint64_t> executions{0};
  std::atomic<uint64_t> seek_skipped{0};
  std::atomic<uint64_t> blocks_decoded{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  std::atomic<bool> failed{false};
  auto lane = [&](uint32_t index) {
    try {
      ImageSource source =
          replay_ready_
              ? ImageSource(replay_trace_, profiled_pool_size_,
                            options_.image_dedup, options_.seek_checkpoints)
              : ImageSource(factory_, spec_);
      const CheckEnv env =
          campaign.MakeEnv(index, sandbox ? &*sandbox : nullptr);
      for (size_t r = index; r < ranges.size(); r = next_range++) {
        const bool finished = RunRange(
            env, campaign.points(), ranges[r].begin, ranges[r].end, &source,
            [&](size_t, size_t*) {
              return !failed.load(std::memory_order_relaxed) &&
                             campaign.Reserve()
                         ? PointAction::kRun
                         : PointAction::kStop;
            },
            [&](size_t i, CheckResult result) {
              campaign.Record(i, std::move(result.verdict), index);
            });
        if (!finished) {
          break;
        }
      }
      executions += source.executions();
      seek_skipped += source.seek_skipped_events();
      blocks_decoded += source.blocks_decoded();
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) {
        error = std::current_exception();
      }
      failed.store(true);
    }
  };
  if (lanes == 1) {
    lane(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(lanes);
    for (uint32_t i = 0; i < lanes; ++i) {
      threads.emplace_back(lane, i);
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  }
  if (error) {
    std::rethrow_exception(error);
  }
  stats->executions += executions.load();
  if (options_.metrics != nullptr && seek_skipped.load() > 0) {
    options_.metrics->GetCounter("inject.seek_skipped_events")
        ->Increment(seek_skipped.load());
  }
  if (options_.metrics != nullptr && replay_ready_) {
    options_.metrics->GetCounter("inject.trace_blocks_decoded")
        ->Increment(blocks_decoded.load());
  }
  return campaign.Finish();
}

// Resume (--resume-journal): failure points whose verdict the prior
// journal generation already recorded are marked visited up front — the
// pipeline then never re-checks them — and the recorded verdicts are
// queued on resume_schedule_ for the report fold. Gated on
// the trace fingerprint (the verdict cache's staleness key): a mismatch
// means the workload's persistent behaviour changed and every recorded
// verdict is stale, so the engine warns and runs the full campaign.
void FaultInjectionEngine::ApplyResume(FailurePointTree* tree,
                                       FaultInjectionStats* stats) {
  resume_schedule_.clear();
  if (options_.resume == nullptr || options_.resume->verdicts.empty()) {
    return;
  }
  if (!fingerprint_ready_ || !options_.resume->has_profile ||
      options_.resume->fingerprint != trace_fingerprint_) {
    std::fprintf(stderr,
                 "mumak: --resume-journal: trace fingerprint mismatch "
                 "(the journal was recorded against a different "
                 "persistent behaviour); running the full campaign\n");
    return;
  }
  std::unordered_map<uint64_t, const JournalVerdict*> by_seq;
  for (const JournalVerdict& verdict : options_.resume->verdicts) {
    by_seq.emplace(verdict.seq, &verdict);  // first generation wins
  }
  for (const FailurePointTree::NodeIndex node : tree->UnvisitedNodes()) {
    const auto it = first_seq_.find(node);
    if (it == first_seq_.end()) {
      continue;
    }
    const auto recorded = by_seq.find(it->second);
    if (recorded != by_seq.end()) {
      tree->MarkVisited(node);
      resume_schedule_.push_back(*recorded->second);
      ++stats->resumed;
    }
  }
  std::sort(resume_schedule_.begin(), resume_schedule_.end(),
            [](const JournalVerdict& a, const JournalVerdict& b) {
              return a.seq < b.seq;
            });
  if (options_.metrics != nullptr) {
    options_.metrics->GetGauge("inject.resumed")->Set(stats->resumed);
  }
}

std::vector<ReplayPoint> FaultInjectionEngine::BuildReplaySchedule(
    const FailurePointTree& tree) const {
  std::vector<ReplayPoint> points;
  const std::vector<FailurePointTree::NodeIndex> pending =
      tree.UnvisitedNodes();
  points.reserve(pending.size());
  for (const FailurePointTree::NodeIndex node : pending) {
    const auto it = first_seq_.find(node);
    if (it == first_seq_.end()) {
      continue;  // not reached by this engine's profile run
    }
    points.push_back({node, it->second});
  }
  std::sort(points.begin(), points.end(),
            [](const ReplayPoint& a, const ReplayPoint& b) {
              return a.seq < b.seq;
            });
  return points;
}

Report FaultInjectionEngine::Run(FaultInjectionStats* stats) {
  FailurePointTree tree = Profile();
  ++stats->executions;
  return InjectAll(&tree, stats);
}

Report ReferenceInjectAll(const TargetFactory& factory,
                          const WorkloadSpec& spec, FailurePointTree* tree,
                          FaultInjectionStats* stats,
                          FailurePointGranularity granularity) {
  Report report;
  std::set<std::string> reported;  // unique bugs only (Table 3)
  stats->failure_points = tree->FailurePointCount();
  while (tree->UnvisitedCount() > 0) {
    TargetPtr target = factory();
    PmPool pool(target->DefaultPoolSize());
    FailurePointSink sink(tree, FailurePointSink::Mode::kInject, granularity);
    CrashSignal crash;
    ++stats->executions;
    try {
      ScopedSink attach(pool.hub(), &sink);
      FaultInjectionEngine::ExecuteWorkload(*target, pool, spec);
      break;  // the remaining points are unreachable (should not happen)
    } catch (const CrashSignal& signal) {
      crash = signal;
    }
    ++stats->injections;
    PmPool recovered = PmPool::FromImage(pool.GracefulImage());
    TargetPtr fresh = factory();
    const RecoveryResult result = RunRecoveryOracle(*fresh, recovered);
    if (result.ok() || !reported.insert(result.detail).second) {
      continue;
    }
    Finding finding;
    finding.source = FindingSource::kFaultInjection;
    finding.kind = result.status == RecoveryStatus::kUnrecoverable
                       ? FindingKind::kRecoveryUnrecoverable
                   : result.status == RecoveryStatus::kTimeout
                       ? FindingKind::kRecoveryTimeout
                       : FindingKind::kRecoveryCrash;
    finding.detail = result.detail;
    finding.location = tree->DescribePath(crash.node);
    finding.seq = crash.seq;
    report.Add(std::move(finding));
  }
  stats->bugs = report.BugCount();
  return report;
}

}  // namespace mumak
