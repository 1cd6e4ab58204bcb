#include "src/pmem/replay_seek_index.h"

namespace mumak {

ReplaySeekIndex::ReplaySeekIndex(const TraceStream* trace,
                                 uint32_t max_checkpoints)
    : trace_(trace) {
  const size_t n = trace->blocks();
  for (uint32_t k = 1; k <= max_checkpoints; ++k) {
    const size_t block = k * n / (static_cast<size_t>(max_checkpoints) + 1);
    if (block == 0 || (!plan_.empty() && plan_.back() >= block)) {
      continue;  // too few blocks for this many checkpoints
    }
    plan_.push_back(block);
  }
}

void ReplaySeekIndex::Capture(const std::vector<uint64_t>& seqs,
                              size_t pool_size, bool track_digest) {
  if (plan_.empty() || seqs.empty()) {
    return;
  }
  ReplayCursor scout(*trace_, pool_size, track_digest);
  for (const size_t block : plan_) {
    const uint64_t first_seq = trace_->block(block).first_seq;
    if (first_seq - 1 > seqs.back()) {
      break;  // no seek target can use this checkpoint
    }
    scout.AdvanceToBlock(block);
    checkpoints_.push_back({first_seq - 1, scout.MakeCheckpoint()});
  }
  blocks_decoded_ += scout.blocks_decoded();
}

const ReplaySeekIndex::Entry* ReplaySeekIndex::Best(
    uint64_t target_seq) const {
  const Entry* best = nullptr;
  for (const Entry& entry : checkpoints_) {
    if (entry.seq_bound > target_seq) {
      break;  // captured in trace order: later entries are later still
    }
    best = &entry;
  }
  return best;
}

size_t ReplaySeekIndex::SkippedEvents(uint64_t target_seq) const {
  const Entry* best = Best(target_seq);
  return best != nullptr ? trace_->block_start(best->checkpoint.block) : 0;
}

std::unique_ptr<ReplayCursor> ReplaySeekIndex::SeekCursor(
    uint64_t target_seq, size_t pool_size, bool track_digest,
    size_t* skipped_events) const {
  auto cursor =
      std::make_unique<ReplayCursor>(*trace_, pool_size, track_digest);
  const size_t skipped = Seek(target_seq, cursor.get());
  if (skipped_events != nullptr) {
    *skipped_events = skipped;
  }
  return cursor;
}

size_t ReplaySeekIndex::Seek(uint64_t target_seq,
                             ReplayCursor* cursor) const {
  const Entry* best = Best(target_seq);
  cursor->Rewind(best != nullptr ? &best->checkpoint : nullptr);
  return cursor->consumed();
}

}  // namespace mumak
