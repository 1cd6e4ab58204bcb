// Cache-line-sharded execution engine behind TraceAnalyzer.
//
// One dispatcher thread (the caller of OnEvent) observes the stream in
// total order, splits stores into per-line chunks, and routes each chunk
// to the shard that owns the line (`line % jobs`) over a bounded SPSC
// queue. Fences cannot be sharded — they synchronize all lines at once —
// so each fence broadcasts an *epoch marker* to every shard; each shard
// folds its epoch-local pending-flush count into a shared EpochSlot, and
// whichever shard retires the marker last sees the complete epoch and runs
// the OnEpoch hooks. With jobs == 1 the same code runs inline on the
// caller's thread (no queues, no workers), which is how the byte-identity
// guarantee is anchored: serial and sharded execution share every code
// path except the transport.
//
// Epoch slots live in a fixed ring. A slot for epoch E is reused at epoch
// E + kEpochRing; reuse is race-free because a shard's unprocessed
// backlog is bounded by queue capacity + one pop batch + the dispatcher's
// staging buffer (4096 + 256 + 256), strictly less than the ring size
// (8192) — by the time the dispatcher stamps slot E + kEpochRing, every
// shard has retired marker E, and the queue's release/acquire indices
// order those slot accesses.

#ifndef MUMAK_SRC_ANALYSIS_SHARDED_ANALYZER_H_
#define MUMAK_SRC_ANALYSIS_SHARDED_ANALYZER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/analysis/detector_pass.h"
#include "src/analysis/spsc_queue.h"
#include "src/analysis/trace_analysis.h"
#include "src/core/report.h"
#include "src/instrument/flat_table.h"

namespace mumak {

// One unit of shard work. `offset` doubles as the epoch ring index for
// kEpoch markers; `kind` distinguishes plain stores from RMWs and the
// three flush flavours.
struct ShardRecord {
  enum class Type : uint8_t {
    kStore = 0,  // one-line store chunk (kStore or kRmw)
    kFlush = 1,
    kEpoch = 2,  // fence/RMW epoch marker, broadcast to every shard
    kStop = 3,   // drain marker: run line-finish hooks and exit
  };
  Type type = Type::kStore;
  EventKind kind = EventKind::kStore;
  uint16_t sub = 0;   // chunk ordinal within the originating event
  uint32_t site = kInvalidFrame;
  uint64_t offset = 0;
  uint32_t size = 0;
  uint64_t seq = 0;
};

// Shared per-epoch accumulator. The dispatcher stamps the plain fields and
// resets the atomics before broadcasting the marker (the queue's release/
// acquire handoff publishes them); shards add their pending-flush counts
// and the last decrement of `remaining` retires the epoch.
struct alignas(64) EpochSlot {
  std::atomic<uint64_t> pending{0};    // lines newly buffered this epoch
  std::atomic<uint32_t> remaining{0};  // shards yet to retire the marker
  uint32_t fence_site = kInvalidFrame;
  uint64_t fence_seq = 0;
  uint64_t nt_stores = 0;
  uint64_t stores = 0;
  bool check_redundant = true;
};

inline constexpr uint64_t kEpochRingSize = 8192;  // power of two
inline constexpr size_t kShardQueueCapacity = 4096;
inline constexpr size_t kShardPopBatch = 256;
// Dispatcher-side staging: records accumulate per shard and publish with
// one release-store per batch instead of per record (the publish is a
// cache-coherence round trip, the dominant dispatch cost).
inline constexpr size_t kRouteBatch = 256;
static_assert(kShardQueueCapacity + kShardPopBatch + kRouteBatch <
                  kEpochRingSize,
              "epoch slot reuse requires backlog < ring size");

// One shard: owns the lines with `line % jobs == index`, their canonical
// LineCoreState, and a private EmitContext. Single-threaded (its worker,
// or the dispatcher when jobs == 1).
class AnalysisShard {
 public:
  AnalysisShard(const TraceAnalysisOptions* options,
                std::vector<std::pair<uint16_t, std::unique_ptr<DetectorPass>>>
                    passes,
                EpochSlot* ring);

  void Process(const ShardRecord& record);
  // End-of-trace: OnLineFinish hooks over every tracked line.
  void FinishLines();

  EmitContext& ctx() { return ctx_; }
  size_t lines_tracked() const { return lines_.size(); }
  uint64_t records() const { return records_; }
  // State of the final (unterminated) epoch, for the TraceTail.
  uint64_t epoch_pending() const { return epoch_pending_lines_.size(); }
  uint32_t epoch_last_flush_site() const { return epoch_last_flush_site_; }
  uint64_t epoch_last_flush_seq() const { return epoch_last_flush_seq_; }
  void set_busy_ns(uint64_t ns) { busy_ns_ = ns; }
  uint64_t busy_ns() const { return busy_ns_; }
  // Modelled bytes for Table 2 (see the definition), not allocated ones.
  size_t FootprintBytes() const;

 private:
  void ProcessStore(const ShardRecord& record);
  void ProcessFlush(const ShardRecord& record);
  void RetireEpoch(const ShardRecord& record);

  const TraceAnalysisOptions* options_;
  std::vector<std::pair<uint16_t, std::unique_ptr<DetectorPass>>> passes_;
  EmitContext ctx_;
  FlatTable<LineCoreState> lines_;  // by line index
  std::vector<uint64_t> epoch_pending_lines_;
  uint32_t epoch_last_flush_site_ = kInvalidFrame;
  uint64_t epoch_last_flush_seq_ = 0;
  EpochSlot* ring_;
  bool eadr_;
  uint64_t records_ = 0;
  uint64_t busy_ns_ = 0;
};

// The dispatcher: TraceAnalyzer's implementation.
class ShardedAnalysis {
 public:
  explicit ShardedAnalysis(TraceAnalysisOptions options);
  ~ShardedAnalysis();

  ShardedAnalysis(const ShardedAnalysis&) = delete;
  ShardedAnalysis& operator=(const ShardedAnalysis&) = delete;

  void OnEvent(const PmEvent& event);
  Report Finish(TraceStats* stats);

 private:
  void OnEventAdr(const PmEvent& event);
  void OnEventEadr(const PmEvent& event);
  void EndEpoch(uint32_t site, uint64_t seq, bool check_redundant);
  void Route(uint32_t shard, const ShardRecord& record);
  // Publishes every shard's staged records (end-of-trace / shutdown).
  void FlushRoutes();
  void WorkerLoop(uint32_t index);
  void PublishMetrics(const std::vector<const EmitContext*>& contexts,
                      uint64_t lines_tracked, double elapsed_s);

  TraceAnalysisOptions options_;
  uint32_t jobs_ = 1;
  std::vector<std::string> pass_names_;  // named passes, detectors order
  // One instance per named pass (line-affine ones additionally get a
  // per-shard instance); extras are caller-owned.
  std::vector<std::unique_ptr<DetectorPass>> dispatcher_passes_;
  std::vector<std::pair<uint16_t, DetectorPass*>> global_event_passes_;
  EmitContext global_ctx_;
  std::unique_ptr<EpochSlot[]> ring_;
  std::vector<std::unique_ptr<AnalysisShard>> shards_;
  std::vector<std::unique_ptr<SpscQueue<ShardRecord>>> queues_;
  // Per-shard staging buffers (jobs > 1 only); see kRouteBatch.
  struct RouteBuffer {
    std::array<ShardRecord, kRouteBatch> records;
    size_t count = 0;
  };
  std::vector<RouteBuffer> staged_;
  std::vector<std::thread> workers_;
  uint64_t epoch_ = 0;
  uint64_t events_ = 0;
  // Epoch-local NT-store state (NT stores bypass the cache: global, never
  // line-sharded) and the eADR per-epoch store count.
  uint64_t nt_epoch_ = 0;
  uint64_t stores_epoch_ = 0;
  uint32_t last_nt_site_ = kInvalidFrame;
  uint64_t last_nt_seq_ = 0;
  bool started_ = false;
  bool finished_ = false;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace mumak

#endif  // MUMAK_SRC_ANALYSIS_SHARDED_ANALYZER_H_
