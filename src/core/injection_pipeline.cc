#include "src/core/injection_pipeline.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "src/core/injection_schedule.h"
#include "src/pmem/image_digest.h"
#include "src/sandbox/child.h"
#include "src/sandbox/recovery_sandbox.h"

namespace mumak {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t MicrosSince(Clock::time_point from) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            from)
          .count());
}

void Bump(Counter* counter, uint64_t by = 1) {
  if (counter != nullptr && by != 0) {
    counter->Increment(by);
  }
}

void Observe(Histogram* histogram, uint64_t value) {
  if (histogram != nullptr) {
    histogram->Observe(value);
  }
}

std::string_view RecoveryStatusName(RecoveryStatus status) {
  switch (status) {
    case RecoveryStatus::kOk:
      return "ok";
    case RecoveryStatus::kUnrecoverable:
      return "unrecoverable";
    case RecoveryStatus::kCrashed:
      return "crashed";
    case RecoveryStatus::kTimeout:
      return "timeout";
  }
  return "unknown";
}

}  // namespace

InjectionMetrics::InjectionMetrics(MetricsRegistry* r) : registry(r) {
  if (r == nullptr) {
    return;
  }
  attempted = r->GetCounter("inject.attempted");
  crashed = r->GetCounter("inject.crashed");
  deduplicated = r->GetCounter("inject.deduplicated");
  dedup_hits = r->GetCounter("inject.image_dedup_hits");
  distinct_images = r->GetCounter("inject.distinct_images");
  dedup_collisions = r->GetCounter("inject.dedup_collisions");
  budget_stops = r->GetCounter("inject.budget_stops");
  recovery_ok = r->GetCounter("recovery.ok");
  recovery_unrecoverable = r->GetCounter("recovery.unrecoverable");
  recovery_crashed = r->GetCounter("recovery.crashed");
  recovery_timeout = r->GetCounter("recovery.timeout");
  run_us = r->GetHistogram("inject.run_us");
  image_us = r->GetHistogram("inject.image_us");
  recovery_us = r->GetHistogram("recovery.run_us");
  digest_us = r->GetHistogram("digest.compute_us");
  image_pages = r->GetHistogram("inject.image_pages");
}

// -- ImageSource ------------------------------------------------------------

// One instrumented workload execution on its own thread, paused at the
// event whose seq a lane asked for. The lane and the execution strictly
// alternate under one mutex: the lane waits while the execution runs and
// the execution waits while the lane reads its model, so the paused model
// is never read while it is being written. Stopping throws CrashSignal at
// the pause, so the target unwinds exactly as from an injected crash.
class ImageSource::Execution : public EventSink {
 public:
  Execution(const TargetFactory& factory, const WorkloadSpec& spec)
      : target_(factory()), pool_(target_->DefaultPoolSize()), spec_(spec) {}
  Execution(const Execution&) = delete;
  Execution& operator=(const Execution&) = delete;

  ~Execution() override {
    if (!thread_.joinable()) {
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!finished_) {
        stopping_ = true;
        lane_turn_ = false;
        turn_.notify_one();
      }
    }
    thread_.join();
  }

  // Runs the execution on to the event at `seq` (ahead of any earlier
  // pause) and pauses it there. False when the workload finished first;
  // an exception the target threw is rethrown.
  bool RunTo(uint64_t seq) {
    std::unique_lock<std::mutex> lock(mutex_);
    pause_seq_ = seq;
    lane_turn_ = false;
    if (thread_.joinable()) {
      turn_.notify_one();
    } else {
      thread_ = std::thread(&Execution::Run, this);
    }
    turn_.wait(lock, [this] { return lane_turn_; });
    if (error_) {
      std::rethrow_exception(error_);
    }
    return !finished_;
  }

  // Whether RunTo can reach `seq`: not finished and not at or past it.
  bool Reaches(uint64_t seq) const { return !finished_ && seq > pause_seq_; }

  const PersistencyModel& model() const { return pool_.model(); }

  void OnEvent(const PmEvent& event) override {
    if (event.seq != pause_seq_) {
      return;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    lane_turn_ = true;
    turn_.notify_one();
    turn_.wait(lock, [this] { return !lane_turn_; });
    if (stopping_) {
      throw CrashSignal{FailurePointTree::kNotFound, event.seq};
    }
  }

 private:
  void Run() {
    std::exception_ptr error;
    try {
      ScopedSink attach(pool_.hub(), this);
      FaultInjectionEngine::ExecuteWorkload(*target_, pool_, spec_);
    } catch (const CrashSignal&) {
      // Stopped at a pause.
    } catch (...) {
      error = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mutex_);
    error_ = error;
    finished_ = true;
    lane_turn_ = true;
    turn_.notify_one();
  }

  TargetPtr target_;
  PmPool pool_;
  const WorkloadSpec spec_;
  std::mutex mutex_;  // guards the turn and the fields below
  std::condition_variable turn_;
  // Written by the lane only while the execution waits; read by it after
  // its wait returns.
  uint64_t pause_seq_ = 0;
  bool lane_turn_ = true;
  bool stopping_ = false;
  bool finished_ = false;
  std::exception_ptr error_;
  std::thread thread_;
};

ImageSource::ImageSource(TargetFactory factory, WorkloadSpec spec)
    : medium_(factory()->DefaultPoolSize()),
      factory_(std::move(factory)),
      spec_(spec) {}

ImageSource::ImageSource(const TraceStream& trace, size_t pool_size,
                         bool track_digest, uint32_t seek_checkpoints)
    : medium_(pool_size),
      cursor_(std::make_unique<ReplayCursor>(trace, pool_size, track_digest,
                                             seek_checkpoints)) {}

ImageSource::~ImageSource() = default;

bool ImageSource::Produce(const ReplayPoint& point) {
  if (replays()) {
    cursor_->AdvanceTo(point.seq);
    return true;
  }
  if (execution_ == nullptr || !execution_->Reaches(point.seq)) {
    execution_.reset();  // joined before the next one starts
    execution_ = std::make_unique<Execution>(factory_, spec_);
    ++executions_;
  }
  if (!execution_->RunTo(point.seq)) {
    return false;
  }
  // Graceful crash image: pending stores persisted, program order
  // respected (§4.1).
  execution_->model().GracefulImageInto(&medium_);
  return true;
}

const PoolMedium& ImageSource::image() const {
  return replays() ? cursor_->image() : medium_;
}

ImageDigest ImageSource::Digest() const {
  // O(lines dirtied since the last point), or O(footprint) for the medium.
  return replays() ? cursor_->Digest() : medium_.Digest();
}

PmPool ImageSource::OraclePool() {
  if (replays()) {
    medium_.CopyFrom(cursor_->image());
  }
  return PmPool::FromMedium(&medium_);
}

// -- Check ------------------------------------------------------------------

CheckResult RunCheck(const CheckEnv& env, const ReplayPoint& point,
                     ImageSource* source) {
  CheckResult r;
  JournalVerdict& v = r.verdict;
  v.seq = point.seq;
  const PoolMedium& image = source->image();
  Observe(env.metrics.image_pages, image.pages().size());
  if (env.cache != nullptr) {
    const auto digest_start = Clock::now();
    r.digest = source->Digest();
    Observe(env.metrics.digest_us, MicrosSince(digest_start));
    JournalVerdict cached;
    const VerdictCache::Outcome outcome = env.cache->Lookup(
        r.digest, point.seq, image.data(), image.size(), &cached);
    if (outcome == VerdictCache::Outcome::kHit) {
      // Graceful-image equality implies verdict equality (recovery is
      // deterministic on the image bytes), so the cached verdict stands in
      // for an oracle run, with provenance naming the digest and the
      // failure point whose check produced it.
      cached.dedup_of = "image " + r.digest.Hex() + " first checked at seq " +
                        std::to_string(cached.seq);
      cached.seq = point.seq;
      cached.from_cache = true;
      v = std::move(cached);
      return r;
    }
    // kLater and kCollision run the oracle and cache nothing.
    r.fresh = outcome == VerdictCache::Outcome::kMiss;
    if (outcome == VerdictCache::Outcome::kCollision) {
      Bump(env.metrics.dedup_collisions);
    }
  }

  // The in-process oracle recovers on a re-executed image in place, so
  // verify mode keeps a copy of those bytes for the insert.
  std::vector<uint8_t> verify_bytes;
  if (r.fresh && env.cache->verify() && env.sandbox == nullptr &&
      !source->replays()) {
    verify_bytes.assign(image.data(), image.data() + image.size());
  }
  {
    const auto oracle_start = Clock::now();
    ScopedSpan span(env.tracer, "recovery", "recovery", env.lane + 1);
    RecoveryStatus status;
    if (env.sandbox == nullptr) {
      // In-process verdicts carry no sandbox evidence (wall_us stays 0),
      // so reports stay byte-identical to the reference loop.
      PmPool recovered = source->OraclePool();
      TargetPtr fresh = env.factory();
      const RecoveryResult result = RunRecoveryOracle(*fresh, recovered);
      status = result.status;
      v.detail = result.detail;
    } else {
      const SandboxVerdict verdict = env.sandbox->Check(env.lane, image);
      status = verdict.status;
      v.detail = verdict.detail;
      if (verdict.signal != 0) {
        v.signal_name = SignalName(verdict.signal);
      }
      v.timed_out = verdict.timed_out;
      v.wall_us = verdict.recovery_wall_us;
    }
    v.status = std::string(RecoveryStatusName(status));
    span.AddArg("status", v.status);
    Observe(env.metrics.recovery_us, MicrosSince(oracle_start));
  }
  if (r.fresh) {
    const uint8_t* bytes =
        verify_bytes.empty() ? image.data() : verify_bytes.data();
    env.cache->Insert(r.digest, v, bytes, image.size());
  }
  return r;
}

// -- The range worker ---------------------------------------------------------

bool RunRange(const CheckEnv& env, const std::vector<ReplayPoint>& points,
              size_t begin, size_t end, ImageSource* source,
              const std::function<PointAction(size_t, size_t*)>& before,
              const std::function<void(size_t, CheckResult)>& after) {
  for (size_t i = begin; i < end; ++i) {
    const PointAction action = before(i, &end);
    if (action == PointAction::kStop) {
      return false;
    }
    if (action == PointAction::kSkip) {
      continue;
    }
    if (i >= end) {
      break;  // `before` gave the rest of the range away
    }
    const auto start = Clock::now();
    ScopedSpan span(env.tracer, "inject", "injection", env.lane + 1);
    span.AddArg("failure_point", uint64_t{points[i].node});
    span.AddArg("seq", points[i].seq);
    if (!source->Produce(points[i])) {
      Bump(env.metrics.attempted);  // an attempt, but no check
      continue;
    }
    Observe(env.metrics.image_us, MicrosSince(start));
    after(i, RunCheck(env, points[i], source));
    Observe(env.metrics.run_us, MicrosSince(start));
  }
  return true;
}

// -- Plan ---------------------------------------------------------------------

InjectionCampaign::InjectionCampaign(FaultInjectionEngine* engine,
                                     FailurePointTree* tree,
                                     FaultInjectionStats* stats,
                                     uint32_t workers, size_t shards)
    : engine_(engine),
      tree_(tree),
      stats_(stats),
      options_(engine->options()),
      metrics_(engine->options().metrics),
      start_(Clock::now()),
      replay_(engine->replay_ready()) {
  if (!engine->profiled()) {
    throw std::logic_error(
        "fault injection: Profile() has not run on this engine; injection "
        "targets the failure points' profiled first-hit seqs, so profile "
        "on the same engine first");
  }
  if (options_.image_dedup) {
    cache_.emplace(options_.verify_dedup);
    if (!options_.verdict_cache_path.empty()) {
      // A stale or corrupt file degrades to an empty cache with a warning.
      std::string warning;
      cache_->Load(options_.verdict_cache_path, engine->trace_fingerprint(),
                   &warning);
      if (!warning.empty()) {
        std::fprintf(stderr, "mumak: verdict cache: %s\n", warning.c_str());
      }
    }
  }
  engine->ApplyResume(tree, stats);
  const std::vector<ReplayPoint> schedule = engine->BuildReplaySchedule(*tree);
  stats->failure_points = tree->FailurePointCount();

  InjectionPlanOptions plan_options;
  plan_options.rank = options_.rank;
  plan_options.findings = options_.rank_findings;
  const InjectionPlan plan =
      BuildInjectionPlan(schedule, engine->epoch_summaries(), plan_options);
  points_.reserve(plan.checks.size());
  for (const PlannedCheck& check : plan.checks) {
    points_.push_back(check.point);
  }
  stats->plan_finding_hits = plan.finding_hits;
  if (metrics_.registry != nullptr && plan.finding_hits > 0) {
    metrics_.registry->GetCounter("inject.rank_finding_hits")
        ->Increment(plan.finding_hits);
  }

  const size_t n = points_.size();
  lanes_ = static_cast<uint32_t>(
      std::max<uint64_t>(1, std::min<uint64_t>(workers, n)));
  size_t range_count = n;
  if (replay_) {
    range_count = shards != 0 ? shards : lanes_ == 1 ? 1 : lanes_ * 4;
  }
  range_count = std::max<size_t>(1, std::min(range_count, n));
  for (size_t r = 0; r < range_count && n > 0; ++r) {
    const size_t b = r * n / range_count;
    const size_t e = (r + 1) * n / range_count;
    if (b < e) {
      ranges_.push_back({b, e});
    }
  }
  verdicts_.resize(n);
  have_.assign(n, 0);

  if (metrics_.registry != nullptr) {
    metrics_.registry->GetGauge("inject.workers")->Set(lanes_);
  }
  if (replay_) {
    stats->replay_trace_bytes = engine->replay_trace().FootprintBytes();
    if (metrics_.registry != nullptr) {
      metrics_.registry->GetGauge("inject.replay_trace_bytes")
          ->Set(stats->replay_trace_bytes);
    }
  }
  if (options_.progress != nullptr) {
    options_.progress->BeginPhase("inject", n, options_.time_budget_s);
  }
}

CheckEnv InjectionCampaign::MakeEnv(uint32_t lane, RecoverySandbox* sandbox) {
  CheckEnv env;
  env.factory = engine_->factory();
  env.sandbox = sandbox;
  env.lane = lane;
  env.cache = cache();
  env.metrics = metrics_;
  env.tracer = options_.tracer;
  return env;
}

bool InjectionCampaign::Expired() {
  if (options_.cancel != nullptr &&
      options_.cancel->load(std::memory_order_relaxed)) {
    exhausted_.store(true);
    return true;
  }
  // The time budget is flagged, so the journal footer can say
  // "budget-exhausted" (vs ^C).
  if (std::chrono::duration<double>(Clock::now() - start_).count() >
      options_.time_budget_s) {
    budget_stopped_.store(true);
    exhausted_.store(true);
    return true;
  }
  return false;
}

bool InjectionCampaign::Reserve() {
  if (Expired()) {
    return false;
  }
  const uint64_t slot = reserved_.fetch_add(1, std::memory_order_relaxed);
  if (options_.budget_checks > 0 && slot >= options_.budget_checks) {
    budget_stopped_.store(true);
    exhausted_.store(true);
    return false;
  }
  return true;
}

// -- Record ---------------------------------------------------------------------

bool InjectionCampaign::Record(size_t index, JournalVerdict v,
                               uint32_t worker) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (index >= points_.size() || have_[index] != 0) {
    return false;
  }
  have_[index] = 1;
  ++recorded_;
  const ReplayPoint& point = points_[index];
  v.seq = point.seq;
  v.worker = worker;
  // Stamped here, not where the check ran: path strings resolve through
  // the process-global frame registry, which a stateless remote worker
  // does not have.
  const bool ok = v.status == "ok";
  v.location = ok ? std::string() : tree_->DescribePath(point.node);
  tree_->MarkVisited(point.node);
  CampaignJournal* journal = options_.journal;
  if (journal != nullptr) {
    journal->WriteDispatch(v.seq, worker);
    journal->WriteVerdict(v);
  }
  Bump(metrics_.attempted);
  Bump(metrics_.crashed);
  if (metrics_.registry != nullptr) {
    if (worker >= worker_counters_.size()) {
      worker_counters_.resize(worker + 1, nullptr);
    }
    if (worker_counters_[worker] == nullptr) {
      worker_counters_[worker] = metrics_.registry->GetCounter(
          "inject.worker." + std::to_string(worker) + ".injections");
    }
    Bump(worker_counters_[worker]);
  }
  // Cache hits skip the recovery.* counters: those count oracle runs.
  if (v.from_cache) {
    Bump(metrics_.dedup_hits);
  } else {
    Bump(ok                         ? metrics_.recovery_ok
         : v.status == "unrecoverable" ? metrics_.recovery_unrecoverable
         : v.status == "timeout"       ? metrics_.recovery_timeout
                                       : metrics_.recovery_crashed);
  }
  if (v.from_cache) {
    ++stats_->dedup_hits;
  }
  if (options_.progress != nullptr) {
    options_.progress->Advance();
  }
  verdicts_[index] = std::move(v);
  return true;
}

bool InjectionCampaign::recorded(size_t index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return index < have_.size() && have_[index] != 0;
}

size_t InjectionCampaign::recorded_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recorded_;
}

// -- Merge --------------------------------------------------------------------

Report InjectionCampaign::Finish(uint64_t worker_collisions) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const JournalVerdict*> all;
  all.reserve(recorded_ + engine_->resume_schedule().size());
  for (size_t i = 0; i < verdicts_.size(); ++i) {
    if (have_[i] != 0) {
      all.push_back(&verdicts_[i]);
    }
  }
  for (const JournalVerdict& resumed : engine_->resume_schedule()) {
    all.push_back(&resumed);
  }
  uint64_t deduplicated = 0;
  Report report = JournalReplay::FoldVerdicts(std::move(all), &deduplicated);
  Bump(metrics_.deduplicated, deduplicated);
  if (options_.progress != nullptr) {
    options_.progress->EndPhase();
  }

  FaultInjectionStats& stats = *stats_;
  stats.injections = recorded_;
  if (replay_) {
    stats.replayed = recorded_;
  }
  stats.budget_exhausted = exhausted_.load();
  stats.budget_stopped = budget_stopped_.load();
  if (stats.budget_stopped) {
    Bump(metrics_.budget_stops);
  }
  stats.bugs = report.BugCount();
  stats.tree_bytes = tree_->FootprintBytes();
  if (cache_) {
    stats.dedup_collisions = cache_->collisions() + worker_collisions;
    stats.cache_loaded = cache_->loaded();
    // One inserted entry per distinct image whose oracle ran (a twin whose
    // oracle ran again in another lane adds none).
    stats.distinct_images = cache_->inserted();
    Bump(metrics_.distinct_images, stats.distinct_images);
    if (!options_.verdict_cache_path.empty()) {
      std::string error;
      if (cache_->Save(options_.verdict_cache_path,
                       engine_->trace_fingerprint(), &error)) {
        stats.cache_saved = cache_->size();
      } else {
        std::fprintf(stderr, "mumak: verdict cache: %s\n", error.c_str());
      }
    }
    if (metrics_.registry != nullptr) {
      metrics_.registry->GetGauge("verdict_cache.entries")
          ->Set(cache_->size());
      metrics_.registry->GetGauge("verdict_cache.loaded")
          ->Set(cache_->loaded());
    }
  }
  stats.elapsed_s =
      std::chrono::duration<double>(Clock::now() - start_).count();
  return report;
}

}  // namespace mumak
