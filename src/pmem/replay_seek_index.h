// Sparse checkpoint index over a recorded trace stream, so a synthesis
// pass can start near an arbitrary instruction counter instead of
// replaying from zero. One scout pass (Capture) walks the stream once and
// keeps a handful of image checkpoints on block starts. Every consumer
// that starts mid-trace then seeks: a fleet or thread range starting at
// its first point, or a ranked dispatch order stepping backwards. A seek
// resumes a cursor from the latest checkpoint at or before the target
// seq, decoding exactly the checkpoint's block before it advances and
// paying O(target - checkpoint) store patches instead of O(target).
//
// A checkpoint is the pages the trace wrote up to it plus a digest, so
// capture costs one footprint copy per checkpoint (bounded by
// max_checkpoints, default 4), and a seek one more. Neither is pool-sized.
// The block size is the stream's: smaller blocks place checkpoints and
// seeks finer.

#ifndef MUMAK_SRC_PMEM_REPLAY_SEEK_INDEX_H_
#define MUMAK_SRC_PMEM_REPLAY_SEEK_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/instrument/trace.h"
#include "src/pmem/replay_cursor.h"

namespace mumak {

class ReplaySeekIndex {
 public:
  // Plans up to `max_checkpoints` checkpoints on block starts spread
  // evenly across `trace` (which must outlive the index). 0 checkpoints,
  // or a trace of one block, disables capture entirely (every seek falls
  // back to a from-zero cursor).
  ReplaySeekIndex(const TraceStream* trace, uint32_t max_checkpoints);

  // The scout pass: one cursor (over `pool_size` zero bytes, digest-
  // tracking per `track_digest`) walks to each planned block start that
  // the ascending `seqs` reach and checkpoints it. O(trace length).
  void Capture(const std::vector<uint64_t>& seqs, size_t pool_size,
               bool track_digest);

  // A cursor that has applied exactly the events of the latest checkpoint
  // with last-applied seq <= `target_seq` — the caller AdvanceTo(target)s
  // from there. Falls back to a fresh from-zero cursor (over `pool_size`
  // zero bytes, digest-tracking per `track_digest`) when no checkpoint
  // qualifies. `skipped_events` (optional) reports how many trace events
  // the seek avoided re-applying.
  std::unique_ptr<ReplayCursor> SeekCursor(uint64_t target_seq,
                                           size_t pool_size,
                                           bool track_digest,
                                           size_t* skipped_events =
                                               nullptr) const;

  // The same seek in place: rewinds `cursor` (over this index's trace),
  // reusing its image memory. Returns the trace events skipped.
  size_t Seek(uint64_t target_seq, ReplayCursor* cursor) const;

  // Trace events the cursor SeekCursor(target_seq) returns has already
  // applied (0 when it would start from zero). A cursor that has consumed
  // fewer events than this is cheaper to replace by a seek than to advance.
  size_t SkippedEvents(uint64_t target_seq) const;

  size_t checkpoint_count() const { return checkpoints_.size(); }
  // Blocks the scout pass decoded.
  uint64_t blocks_decoded() const { return blocks_decoded_; }

 private:
  struct Entry {
    // Every applied event's seq is below this block's first seq, so the
    // checkpoint serves any target >= seq_bound.
    uint64_t seq_bound = 0;
    ReplayCursor::Checkpoint checkpoint;
  };

  // The latest checkpoint with seq_bound <= target_seq, or null.
  const Entry* Best(uint64_t target_seq) const;

  const TraceStream* trace_;
  std::vector<size_t> plan_;  // blocks to checkpoint the start of
  std::vector<Entry> checkpoints_;
  uint64_t blocks_decoded_ = 0;
};

}  // namespace mumak

#endif  // MUMAK_SRC_PMEM_REPLAY_SEEK_INDEX_H_
