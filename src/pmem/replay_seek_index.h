// Sparse checkpoint index over a recorded trace, so a synthesis pass can
// start near an arbitrary instruction counter instead of replaying from
// zero. One scout pass (Capture) walks the injection schedule once and
// keeps a handful of image checkpoints at block-aligned event indices as
// the cursor crosses them. Every consumer that starts mid-trace then seeks:
// a fleet or thread range starting at its first point, or a ranked dispatch
// order stepping backwards. A seek resumes a cursor from the latest
// checkpoint at or before the target seq, paying O(target - checkpoint)
// store patches instead of O(target).
//
// A checkpoint is the pages the trace wrote up to it plus a digest, so
// capture costs one footprint copy per checkpoint (bounded by
// max_checkpoints, default 4), and a seek one more. Neither is pool-sized.

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
  // Plans up to `max_checkpoints` capture points spread evenly across
  // `trace` (which must outlive the index). Indices are aligned down to a
  // multiple of `alignment` events when the trace is long enough —
  // matching the v3 trace block size by default, so a checkpoint
  // corresponds to a block boundary of the spooled trace. 0 checkpoints
  // disables capture entirely (every seek falls back to a from-zero
  // cursor).
  ReplaySeekIndex(const RecordedTrace* trace, uint32_t max_checkpoints,
                  size_t alignment = 64u << 10);

  // Called by a scout pass after each AdvanceTo: captures a checkpoint if
  // the cursor has crossed the next planned capture index. Cheap when it
  // has not (one comparison). The cursor must be over the same trace.
  void MaybeCapture(const ReplayCursor& cursor);

  // The scout pass: walks one cursor (over `pool_size` zero bytes,
  // digest-tracking per `track_digest`) through the ascending `seqs` and
  // captures the planned checkpoints along the way. O(trace length).
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

 private:
  struct Entry {
    uint64_t seq_bound = 0;  // seq of the last event the checkpoint applied
    ReplayCursor::Checkpoint checkpoint;
  };

  // The latest checkpoint with seq_bound <= target_seq, or null.
  const Entry* Best(uint64_t target_seq) const;

  const RecordedTrace* trace_;
  std::vector<size_t> plan_;  // event indices where a capture is due
  size_t next_plan_ = 0;
  std::vector<Entry> checkpoints_;
};

}  // namespace mumak

#endif  // MUMAK_SRC_PMEM_REPLAY_SEEK_INDEX_H_
