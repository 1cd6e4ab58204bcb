#include "src/analysis/sharded_analyzer.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "src/analysis/merge.h"
#include "src/observability/journal.h"
#include "src/pmem/persistency_model.h"

namespace mumak {

namespace {
// Pre-event state handed to eADR flush hooks: no line state is maintained
// in that mode (the caches are in the persistence domain).
const LineCoreState kNoLineState{};

// How long an idle shard worker polls before it sleeps until the next
// publish.
constexpr std::chrono::microseconds kShardIdleSpin{200};
}  // namespace

AnalysisShard::AnalysisShard(
    const TraceAnalysisOptions* options,
    std::vector<std::pair<uint16_t, std::unique_ptr<DetectorPass>>> passes,
    EpochSlot* ring)
    : options_(options),
      passes_(std::move(passes)),
      ctx_(options),
      ring_(ring),
      eadr_(options->eadr_mode) {}

void AnalysisShard::Process(const ShardRecord& record) {
  ++records_;
  switch (record.type) {
    case ShardRecord::Type::kStore:
      ProcessStore(record);
      break;
    case ShardRecord::Type::kFlush:
      ProcessFlush(record);
      break;
    case ShardRecord::Type::kEpoch:
      RetireEpoch(record);
      break;
    case ShardRecord::Type::kStop:
      break;  // handled by the worker loop
  }
}

void AnalysisShard::ProcessStore(const ShardRecord& record) {
  const uint64_t line = LineIndex(record.offset);
  LineCoreState& state = lines_[line];

  LineChunk chunk;
  chunk.line = line;
  chunk.offset = record.offset;
  chunk.size = record.size;
  chunk.seq = record.seq;
  chunk.site = record.site;
  chunk.sub = record.sub;
  chunk.kind = record.kind;
  for (auto& [index, pass] : passes_) {
    ctx_.SetPoint(0, index, record.sub);
    pass->OnStoreChunk(chunk, state, ctx_);
  }

  // Canonical transition: mark 8-byte granules dirty. RMWs touch a single
  // granule (§4.2: fence semantics handled by the epoch marker, the
  // written granule still needs a flush).
  if (record.kind == EventKind::kRmw) {
    const uint64_t granule =
        (record.offset % kCacheLineSize) / kAtomicGranule;
    state.dirty_granules |= static_cast<uint8_t>(1u << granule);
  } else {
    const uint64_t first = (record.offset % kCacheLineSize) / kAtomicGranule;
    const uint64_t last =
        ((record.offset + record.size - 1) % kCacheLineSize) / kAtomicGranule;
    for (uint64_t g = first; g <= last; ++g) {
      state.dirty_granules |= static_cast<uint8_t>(1u << g);
    }
  }
  state.stores_since_flush += 1;
  state.last_store_seq = record.seq;
  state.last_store_site = record.site;
}

void AnalysisShard::ProcessFlush(const ShardRecord& record) {
  const uint64_t line = LineIndex(record.offset);

  LineChunk chunk;
  chunk.line = line;
  chunk.offset = record.offset;
  chunk.size = record.size;
  chunk.seq = record.seq;
  chunk.site = record.site;
  chunk.sub = record.sub;
  chunk.kind = record.kind;

  if (eadr_) {
    // No line state under eADR: flushes are pure overhead, and the passes
    // judge them without durability bookkeeping.
    for (auto& [index, pass] : passes_) {
      ctx_.SetPoint(0, index, record.sub);
      pass->OnFlush(chunk, kNoLineState, ctx_);
    }
    return;
  }

  LineCoreState& state = lines_[line];
  for (auto& [index, pass] : passes_) {
    ctx_.SetPoint(0, index, record.sub);
    pass->OnFlush(chunk, state, ctx_);
  }

  state.flushed_ever = true;
  state.stores_since_flush = 0;
  state.dirty_granules = 0;
  // clflush is ordered with respect to stores; only the reorderable
  // flavours buffer until the next fence.
  if (record.kind != EventKind::kClflush && !state.pending_flush) {
    state.pending_flush = true;
    epoch_pending_lines_.push_back(line);
    epoch_last_flush_site_ = record.site;
    epoch_last_flush_seq_ = record.seq;
  }
}

void AnalysisShard::RetireEpoch(const ShardRecord& record) {
  EpochSlot& slot = ring_[record.offset & (kEpochRingSize - 1)];

  const uint64_t count = epoch_pending_lines_.size();
  for (uint64_t line : epoch_pending_lines_) {
    lines_[line].pending_flush = false;
  }
  epoch_pending_lines_.clear();
  epoch_last_flush_site_ = kInvalidFrame;
  epoch_last_flush_seq_ = 0;
  if (count != 0) {
    slot.pending.fetch_add(count, std::memory_order_relaxed);
  }

  // Last shard to retire the marker sees the complete epoch (the acq_rel
  // RMW chain publishes the other shards' pending counts) and runs the
  // epoch hooks on its own pass instances.
  if (slot.remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) {
    return;
  }
  EpochStats epoch;
  epoch.fence_seq = slot.fence_seq;
  epoch.fence_site = slot.fence_site;
  epoch.check_redundant = slot.check_redundant;
  epoch.pending_flushes = slot.pending.load(std::memory_order_relaxed);
  epoch.nt_stores = slot.nt_stores;
  epoch.stores = slot.stores;
  for (auto& [index, pass] : passes_) {
    ctx_.SetPoint(0, index, 0);
    pass->OnEpoch(epoch, ctx_);
  }
}

void AnalysisShard::FinishLines() {
  for (const auto& [line, state] : lines_) {
    for (auto& [index, pass] : passes_) {
      ctx_.SetPoint(1, index, line);
      pass->OnLineFinish(line, state, ctx_);
    }
  }
}

size_t AnalysisShard::FootprintBytes() const {
  // The per-line term is a Table 2 model constant (state, key and 16 bytes
  // of hash-node bookkeeping), not the line table's allocated bytes.
  return lines_.size() * (sizeof(LineCoreState) + sizeof(uint64_t) + 16) +
         epoch_pending_lines_.capacity() * sizeof(uint64_t) +
         ctx_.FootprintBytes();
}

ShardedAnalysis::ShardedAnalysis(TraceAnalysisOptions options)
    : options_(std::move(options)), global_ctx_(&options_) {
  jobs_ = std::max<uint32_t>(1, options_.jobs);
  pass_names_ = options_.detectors.has_value()
                    ? *options_.detectors
                    : DefaultDetectorNames(options_.eadr_mode);

  const DetectorRegistry& registry = DetectorRegistry::Global();
  for (const std::string& name : pass_names_) {
    std::unique_ptr<DetectorPass> pass = registry.Create(name, options_);
    if (pass == nullptr) {
      throw std::invalid_argument("unknown detector '" + name + "'");
    }
    if (!pass->supports_mode(options_.eadr_mode)) {
      throw std::invalid_argument(
          "detector '" + name + "' does not support " +
          (options_.eadr_mode ? "eADR" : "ADR") + " mode");
    }
    dispatcher_passes_.push_back(std::move(pass));
  }
  for (DetectorPass* extra : options_.extra_global_passes) {
    if (extra->line_affine()) {
      throw std::invalid_argument(
          "extra_global_passes entries must be global-affinity "
          "(line_affine() == false): '" +
          std::string(extra->name()) + "'");
    }
    if (!extra->supports_mode(options_.eadr_mode)) {
      throw std::invalid_argument(
          "detector '" + std::string(extra->name()) +
          "' does not support " + (options_.eadr_mode ? "eADR" : "ADR") +
          " mode");
    }
  }

  uint16_t index = 0;
  for (auto& pass : dispatcher_passes_) {
    if (pass->wants_global_events()) {
      global_event_passes_.emplace_back(index, pass.get());
    }
    ++index;
  }
  for (DetectorPass* extra : options_.extra_global_passes) {
    if (extra->wants_global_events()) {
      global_event_passes_.emplace_back(index, extra);
    }
    ++index;
  }

  ring_ = std::make_unique<EpochSlot[]>(kEpochRingSize);
  for (uint32_t s = 0; s < jobs_; ++s) {
    std::vector<std::pair<uint16_t, std::unique_ptr<DetectorPass>>>
        shard_passes;
    for (uint16_t i = 0; i < pass_names_.size(); ++i) {
      if (dispatcher_passes_[i]->line_affine()) {
        shard_passes.emplace_back(i,
                                  registry.Create(pass_names_[i], options_));
      }
    }
    shards_.push_back(std::make_unique<AnalysisShard>(
        &options_, std::move(shard_passes), ring_.get()));
  }
  if (jobs_ > 1) {
    for (uint32_t s = 0; s < jobs_; ++s) {
      queues_.push_back(
          std::make_unique<SpscQueue<ShardRecord>>(kShardQueueCapacity));
    }
    staged_.resize(jobs_);
    workers_.reserve(jobs_);
    for (uint32_t s = 0; s < jobs_; ++s) {
      workers_.emplace_back(&ShardedAnalysis::WorkerLoop, this, s);
    }
  }
}

ShardedAnalysis::~ShardedAnalysis() {
  if (!workers_.empty()) {
    ShardRecord stop;
    stop.type = ShardRecord::Type::kStop;
    for (uint32_t s = 0; s < jobs_; ++s) {
      Route(s, stop);
    }
    FlushRoutes();
    for (std::thread& worker : workers_) {
      worker.join();
    }
  }
}

void ShardedAnalysis::Route(uint32_t shard, const ShardRecord& record) {
  if (jobs_ == 1) {
    shards_[0]->Process(record);
    return;
  }
  RouteBuffer& staged = staged_[shard];
  staged.records[staged.count++] = record;
  if (staged.count == kRouteBatch) {
    queues_[shard]->PushBatch(staged.records.data(), staged.count);
    staged.count = 0;
  }
}

void ShardedAnalysis::FlushRoutes() {
  for (uint32_t s = 0; s < staged_.size(); ++s) {
    RouteBuffer& staged = staged_[s];
    if (staged.count > 0) {
      queues_[s]->PushBatch(staged.records.data(), staged.count);
      staged.count = 0;
    }
  }
}

void ShardedAnalysis::WorkerLoop(uint32_t index) {
  SpscQueue<ShardRecord>& queue = *queues_[index];
  AnalysisShard& shard = *shards_[index];
  std::array<ShardRecord, kShardPopBatch> batch;
  uint64_t busy_ns = 0;
  // An idle worker polls for kShardIdleSpin (a busy dispatcher publishes
  // well within it, and sleeping would cost each publish a wake-up), then
  // sleeps until the next publish: workers start before profiling and
  // must not hold cores through it and through injection.
  std::chrono::steady_clock::time_point idle_since;
  bool idle = false;
  for (;;) {
    const size_t n = queue.PopBatch(batch.data(), batch.size());
    if (n == 0) {
      const auto now = std::chrono::steady_clock::now();
      if (!idle) {
        idle = true;
        idle_since = now;
      } else if (now - idle_since >= kShardIdleSpin) {
        queue.WaitForItems();
        idle = false;
        continue;
      }
      std::this_thread::yield();
      continue;
    }
    idle = false;
    const auto begin = std::chrono::steady_clock::now();
    for (size_t i = 0; i < n; ++i) {
      if (batch[i].type == ShardRecord::Type::kStop) {
        shard.FinishLines();
        busy_ns += static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - begin)
                .count());
        shard.set_busy_ns(busy_ns);
        return;
      }
      shard.Process(batch[i]);
    }
    busy_ns += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - begin)
            .count());
  }
}

void ShardedAnalysis::EndEpoch(uint32_t site, uint64_t seq,
                               bool check_redundant) {
  EpochSlot& slot = ring_[epoch_ & (kEpochRingSize - 1)];
  slot.fence_site = site;
  slot.fence_seq = seq;
  slot.check_redundant = check_redundant;
  slot.nt_stores = nt_epoch_;
  slot.stores = stores_epoch_;
  slot.pending.store(0, std::memory_order_relaxed);
  // Published by the queue handoff; the release here additionally orders
  // the plain stamps above before any shard's acquire of `remaining`.
  slot.remaining.store(jobs_, std::memory_order_release);

  ShardRecord marker;
  marker.type = ShardRecord::Type::kEpoch;
  marker.site = site;
  marker.offset = epoch_;
  marker.seq = seq;
  for (uint32_t s = 0; s < jobs_; ++s) {
    Route(s, marker);
  }
  ++epoch_;
  nt_epoch_ = 0;
  stores_epoch_ = 0;
}

void ShardedAnalysis::OnEvent(const PmEvent& event) {
  if (!started_) {
    started_ = true;
    start_ = std::chrono::steady_clock::now();
  }
  ++events_;
  for (auto& [index, pass] : global_event_passes_) {
    global_ctx_.SetPoint(0, index, 0);
    pass->OnGlobalEvent(event, global_ctx_);
  }
  if (options_.eadr_mode) {
    OnEventEadr(event);
  } else {
    OnEventAdr(event);
  }
}

void ShardedAnalysis::OnEventAdr(const PmEvent& event) {
  switch (event.kind) {
    case EventKind::kStore: {
      // Split into per-line chunks; each routes to the owning shard with
      // its chunk ordinal (part of the canonical finding order).
      uint64_t offset = event.offset;
      uint64_t remaining = event.size;
      uint16_t sub = 0;
      while (remaining > 0) {
        const uint64_t line = LineIndex(offset);
        const uint64_t line_end = (line + 1) * kCacheLineSize;
        const uint64_t chunk = std::min<uint64_t>(remaining, line_end - offset);
        ShardRecord record;
        record.type = ShardRecord::Type::kStore;
        record.kind = EventKind::kStore;
        record.sub = sub++;
        record.site = event.site;
        record.offset = offset;
        record.size = static_cast<uint32_t>(chunk);
        record.seq = event.seq;
        Route(static_cast<uint32_t>(line % jobs_), record);
        offset += chunk;
        remaining -= chunk;
      }
      break;
    }
    case EventKind::kNtStore:
      // Bypasses the cache; durable at the next fence. Global, never
      // sharded: only the epoch accounting sees it.
      ++nt_epoch_;
      last_nt_site_ = event.site;
      last_nt_seq_ = event.seq;
      break;
    case EventKind::kClflush:
    case EventKind::kClflushOpt:
    case EventKind::kClwb: {
      ShardRecord record;
      record.type = ShardRecord::Type::kFlush;
      record.kind = event.kind;
      record.site = event.site;
      record.offset = event.offset;
      record.size = event.size;
      record.seq = event.seq;
      Route(static_cast<uint32_t>(LineIndex(event.offset) % jobs_), record);
      break;
    }
    case EventKind::kSfence:
    case EventKind::kMfence:
      EndEpoch(event.site, event.seq, /*check_redundant=*/true);
      break;
    case EventKind::kRmw: {
      // Fence semantics first (RMWs exist for atomicity: never flagged as
      // redundant), then the single-granule store part to the owner shard.
      EndEpoch(event.site, event.seq, /*check_redundant=*/false);
      ShardRecord record;
      record.type = ShardRecord::Type::kStore;
      record.kind = EventKind::kRmw;
      record.site = event.site;
      record.offset = event.offset;
      record.size = event.size;
      record.seq = event.seq;
      Route(static_cast<uint32_t>(LineIndex(event.offset) % jobs_), record);
      break;
    }
    case EventKind::kLoad:
      break;
  }
}

void ShardedAnalysis::OnEventEadr(const PmEvent& event) {
  switch (event.kind) {
    case EventKind::kStore:
    case EventKind::kNtStore:
      ++stores_epoch_;
      break;
    case EventKind::kClflush:
    case EventKind::kClflushOpt:
    case EventKind::kClwb: {
      ShardRecord record;
      record.type = ShardRecord::Type::kFlush;
      record.kind = event.kind;
      record.site = event.site;
      record.offset = event.offset;
      record.size = event.size;
      record.seq = event.seq;
      Route(static_cast<uint32_t>(LineIndex(event.offset) % jobs_), record);
      break;
    }
    case EventKind::kSfence:
    case EventKind::kMfence:
      EndEpoch(event.site, event.seq, /*check_redundant=*/true);
      break;
    case EventKind::kRmw:
      EndEpoch(event.site, event.seq, /*check_redundant=*/false);
      break;
    case EventKind::kLoad:
      break;
  }
}

Report ShardedAnalysis::Finish(TraceStats* stats) {
  if (finished_) {
    return Report();
  }
  finished_ = true;

  if (!workers_.empty()) {
    ShardRecord stop;
    stop.type = ShardRecord::Type::kStop;
    for (uint32_t s = 0; s < jobs_; ++s) {
      Route(s, stop);
    }
    FlushRoutes();
    for (std::thread& worker : workers_) {
      worker.join();
    }
    workers_.clear();
  } else {
    shards_[0]->FinishLines();
  }

  // The final (unterminated) epoch's leftovers, assembled from the shard
  // and dispatcher state exactly as the serial analyzer tracked them.
  TraceTail tail;
  if (!options_.eadr_mode) {
    for (const auto& shard : shards_) {
      tail.pending_flushes += shard->epoch_pending();
      if (shard->epoch_pending() > 0 &&
          shard->epoch_last_flush_seq() > tail.last_flush_seq) {
        tail.last_flush_seq = shard->epoch_last_flush_seq();
        tail.last_flush_site = shard->epoch_last_flush_site();
      }
    }
    tail.nt_stores = nt_epoch_;
    tail.last_nt_site = last_nt_site_;
    tail.last_nt_seq = last_nt_seq_;
  }
  uint16_t index = 0;
  for (auto& pass : dispatcher_passes_) {
    global_ctx_.SetPoint(1, index++, std::numeric_limits<uint64_t>::max());
    pass->OnTraceFinish(tail, global_ctx_);
  }
  for (DetectorPass* extra : options_.extra_global_passes) {
    global_ctx_.SetPoint(1, index++, std::numeric_limits<uint64_t>::max());
    extra->OnTraceFinish(tail, global_ctx_);
  }

  // Deterministic collection order: dispatcher context, then shards 0..N-1.
  std::vector<Candidate> candidates = global_ctx_.TakeCandidates();
  for (auto& shard : shards_) {
    std::vector<Candidate> part = shard->ctx().TakeCandidates();
    candidates.insert(candidates.end(),
                      std::make_move_iterator(part.begin()),
                      std::make_move_iterator(part.end()));
  }
  Report report = MergeCandidates(std::move(candidates), options_);

  uint64_t lines_tracked = 0;
  size_t footprint = global_ctx_.FootprintBytes() +
                     kEpochRingSize * sizeof(EpochSlot);
  for (const auto& shard : shards_) {
    lines_tracked += shard->lines_tracked();
    footprint += shard->FootprintBytes();
  }
  for (const auto& queue : queues_) {
    footprint += queue->FootprintBytes();
  }
  const double elapsed_s =
      started_ ? std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start_)
                     .count()
               : 0.0;
  if (stats != nullptr) {
    stats->events = events_;
    stats->lines_tracked = lines_tracked;
    stats->findings = report.findings().size();
    stats->footprint_bytes = footprint;
    stats->elapsed_s = elapsed_s;
  }

  if (options_.metrics != nullptr) {
    std::vector<const EmitContext*> contexts;
    contexts.push_back(&global_ctx_);
    for (const auto& shard : shards_) {
      contexts.push_back(&shard->ctx());
    }
    PublishMetrics(contexts, lines_tracked, elapsed_s);
  }
  if (options_.journal != nullptr) {
    char record[256];
    std::snprintf(record, sizeof(record),
                  "{\"type\": \"analysis\", \"t_us\": %llu, "
                  "\"events\": %llu, \"lines_tracked\": %llu, "
                  "\"findings\": %llu, \"shards\": %u}",
                  static_cast<unsigned long long>(
                      options_.journal->NowMicros()),
                  static_cast<unsigned long long>(events_),
                  static_cast<unsigned long long>(lines_tracked),
                  static_cast<unsigned long long>(report.findings().size()),
                  jobs_);
    options_.journal->Append(record);
  }
  return report;
}

void ShardedAnalysis::PublishMetrics(
    const std::vector<const EmitContext*>& contexts, uint64_t lines_tracked,
    double elapsed_s) {
  MetricsRegistry* metrics = options_.metrics;

  // Pattern-instance counters: every detected instance counts, including
  // ones collapsed by per-site dedup or suppressed warnings (same contract
  // as the serial analyzer's per-emission increments).
  std::array<uint64_t, kFindingKindCount> instances{};
  for (const EmitContext* ctx : contexts) {
    const auto& counts = ctx->instance_counts();
    for (size_t k = 0; k < kFindingKindCount; ++k) {
      instances[k] += counts[k];
    }
  }
  for (size_t k = 0; k < kFindingKindCount; ++k) {
    if (instances[k] == 0) {
      continue;
    }
    metrics
        ->GetCounter("trace.pattern." +
                     std::string(FindingKindName(static_cast<FindingKind>(k))))
        ->Increment(instances[k]);
  }
  metrics->GetGauge("trace.events")->Set(events_);
  metrics->GetGauge("trace.lines_tracked")->Set(lines_tracked);

  // Per-pass candidate counters, by pass index (named, then extras).
  std::vector<uint64_t> per_pass(
      pass_names_.size() + options_.extra_global_passes.size(), 0);
  for (const EmitContext* ctx : contexts) {
    const auto& counts = ctx->pass_counts();
    for (size_t i = 0; i < counts.size() && i < per_pass.size(); ++i) {
      per_pass[i] += counts[i];
    }
  }
  for (size_t i = 0; i < per_pass.size(); ++i) {
    const std::string name =
        i < pass_names_.size()
            ? pass_names_[i]
            : std::string(
                  options_.extra_global_passes[i - pass_names_.size()]
                      ->name());
    metrics->GetCounter("analysis.pass." + name + ".candidates")
        ->Increment(per_pass[i]);
  }

  Histogram* shard_us = metrics->GetHistogram("analysis.shard_us");
  for (size_t s = 0; s < shards_.size(); ++s) {
    metrics
        ->GetCounter("analysis.shard." + std::to_string(s) + ".records")
        ->Increment(shards_[s]->records());
    if (jobs_ > 1) {
      shard_us->Observe(shards_[s]->busy_ns() / 1000);
    }
  }
  if (jobs_ == 1) {
    // Inline mode: the single "shard" is busy for the whole analysis.
    shard_us->Observe(static_cast<uint64_t>(elapsed_s * 1e6));
  }
}

}  // namespace mumak
