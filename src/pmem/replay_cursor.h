// Incremental crash-image synthesis from a recorded trace (replay-based
// fault injection). A graceful crash persists every pending store in program
// order (§4.1), so the graceful image at instruction counter `k` equals the
// initial (zeroed) pool with all store / NT-store / RMW payloads up to `k`
// applied in order — flushes and fences never change it. That makes the
// image at `k2 > k1` derivable from the image at `k1` by patching only the
// stores in `(k1, k2]`: one forward pass over the trace yields the image at
// every failure point, O(trace length) total instead of O(failure points ×
// trace length).
//
// The trace is the profile's in-memory v3 stream. A cursor holds one
// decoded block at a time and decodes the next only once it has applied
// the current one, so a forward pass decodes each block at most once.
//
// A cursor serves any seq order by itself. As it first passes one of a few
// block starts spread evenly over the trace it snapshots its image (and
// settled digest) there, and a seq behind it resumes from the latest such
// checkpoint at or before that seq instead of replaying from zero. So a
// ranked dispatch order that steps backwards, or a lane handed a range
// behind its cursor, pays O(seq - checkpoint) store patches, not O(seq).
//
// The image is a PoolMedium, so it and each checkpoint cost the pages the
// trace wrote. With digest tracking the cursor keeps the image digest
// current from the zero image's, ImageDigest{}: AdvanceTo folds a line's
// stale hash out when it first patches the line, Digest() folds the fresh
// ones in (O(lines-dirtied)), and no per-line table is kept. Content-addressed
// verdict deduplication (src/core/verdict_cache.h) rides on this.

#ifndef MUMAK_SRC_PMEM_REPLAY_CURSOR_H_
#define MUMAK_SRC_PMEM_REPLAY_CURSOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/instrument/trace.h"
#include "src/pmem/image_digest.h"
#include "src/pmem/pool_medium.h"

namespace mumak {

class ReplayCursor {
 public:
  // `trace` must outlive the cursor (it is the profiling run's recorded
  // stream; the engine holds it for the whole injection phase).
  // `pool_size` is the profiled pool's size; the initial image is zeroed,
  // matching a freshly created pool. `seek_checkpoints` is the checkpoint
  // budget: the starts of blocks k * blocks / (seek_checkpoints + 1),
  // k = 1..seek_checkpoints (fewer on a short trace; 0 = none).
  ReplayCursor(const TraceStream& trace, size_t pool_size,
               bool track_digest = false, uint32_t seek_checkpoints = 4);

  // Makes the graceful image at `seq` current: every store payload with
  // seq <= `seq` applied, none later. Any seq order works. Moving forward
  // patches only the stores in between. A `seq` behind the previous call's,
  // or past a checkpoint ahead of the cursor, first restores the latest
  // checkpoint at or before `seq` (the zero image when there is none);
  // the decoded block is kept, so a restore onto the block the cursor
  // already holds decodes nothing. Throws std::runtime_error naming the
  // block if a block fails to decode.
  const PoolMedium& AdvanceTo(uint64_t seq);

  // The image for the most recent AdvanceTo (initial image before any call).
  const PoolMedium& image() const { return image_; }

  // Number of trace events consumed so far.
  size_t consumed() const { return trace_.block_start(block_) + pos_; }

  // Blocks this cursor has decoded.
  uint64_t blocks_decoded() const { return blocks_decoded_; }

  // Checkpoints taken so far (at most the budget).
  size_t checkpoint_count() const { return checkpoints_.size(); }

  // Trace events that restores did not re-apply: the events before each
  // restored checkpoint, summed over restores.
  uint64_t seek_skipped_events() const { return seek_skipped_events_; }

  bool tracks_digest() const { return track_digest_; }

  // 128-bit content digest of image(). Only valid on digest-tracking
  // cursors; settles the lines dirtied since the last call (O(lines-
  // dirtied)) and must equal ComputeContentDigest over the same bytes.
  ImageDigest Digest() const;

 private:
  static constexpr size_t kNoBlock = ~size_t{0};

  // The image and settled digest on a planned block's start.
  struct Checkpoint {
    PoolMedium image;
    ImageDigest digest;
  };

  // Resets to checkpoint `k`, or to the zero image when `k` is
  // checkpoints_.size(). O(both footprints).
  void Restore(size_t k);
  // Applies events while their seq is <= `seq`, decoding blocks and taking
  // the planned checkpoints as it reaches them.
  void Advance(uint64_t seq);
  // Folds the fresh hashes of the dirty lines into digest_.
  void SettleDirtyLines() const;
  uint64_t LineHash(uint64_t line) const;

  const TraceStream& trace_;
  PoolMedium image_;
  TraceBlockDecoder decoder_;
  size_t decoded_ = kNoBlock;  // the block decoder_ holds
  size_t block_ = 0;           // block of the first unapplied event
  size_t pos_ = 0;             // its index within that block
  uint64_t seq_ = 0;           // the previous AdvanceTo's seq
  uint64_t blocks_decoded_ = 0;
  uint64_t seek_skipped_events_ = 0;
  bool track_digest_ = false;
  // Blocks whose start is checkpointed, ascending. A cursor passes block
  // starts in order from where it restored to, so the checkpoints taken
  // are always those of a prefix of plan_.
  std::vector<size_t> plan_;
  std::vector<Checkpoint> checkpoints_;
  // The digest of every line but the dirty ones. Mutable: settling dirty
  // lines is a cache fill, not an observable state change, so Digest()
  // stays const.
  mutable ImageDigest digest_;
  // Lines patched since the last settle: a 64-bit line mask per 4 KiB page
  // (a page holds 64 lines) plus the pages whose mask is non-zero.
  mutable std::vector<uint64_t> dirty_mask_;
  mutable std::vector<uint32_t> dirty_pages_;
};

// Store count of one injection epoch: the half-open event span
// `(previous boundary seq, seq]`. --rank orders checks by this density.
struct EpochSummary {
  uint64_t seq = 0;     // boundary: the epoch's failure-point seq
  uint64_t stores = 0;  // payload-carrying events in the epoch
};

// Streams `trace` once and counts the payload-carrying events of each epoch
// delimited by `boundaries` (ascending failure-point seqs — the injection
// schedule). Events past the last boundary are not counted (nor decoded);
// no failure point can observe them. O(trace length) time; memory for one
// decoded block.
std::vector<EpochSummary> SummarizeEpochs(
    const TraceStream& trace, const std::vector<uint64_t>& boundaries);

}  // namespace mumak

#endif  // MUMAK_SRC_PMEM_REPLAY_CURSOR_H_
