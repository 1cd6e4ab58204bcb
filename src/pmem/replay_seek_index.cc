#include "src/pmem/replay_seek_index.h"

#include <algorithm>

namespace mumak {

ReplaySeekIndex::ReplaySeekIndex(const RecordedTrace* trace,
                                 uint32_t max_checkpoints, size_t alignment)
    : trace_(trace) {
  const size_t n = trace->events.size();
  if (max_checkpoints == 0 || n < 2) {
    return;
  }
  const size_t stride = n / (static_cast<size_t>(max_checkpoints) + 1);
  if (stride == 0) {
    return;
  }
  plan_.reserve(max_checkpoints);
  for (uint32_t k = 1; k <= max_checkpoints; ++k) {
    size_t index = stride * k;
    if (alignment > 0 && index >= alignment) {
      index -= index % alignment;  // land on a trace-block boundary
    }
    if (index == 0 || index >= n) {
      continue;
    }
    if (!plan_.empty() && plan_.back() >= index) {
      continue;  // alignment collapsed two plan points into one
    }
    plan_.push_back(index);
  }
}

void ReplaySeekIndex::MaybeCapture(const ReplayCursor& cursor) {
  if (next_plan_ >= plan_.size() || cursor.consumed() < plan_[next_plan_]) {
    return;
  }
  // The cursor may have crossed several plan points in one AdvanceTo; one
  // checkpoint at its current state covers them all.
  while (next_plan_ < plan_.size() && cursor.consumed() >= plan_[next_plan_]) {
    ++next_plan_;
  }
  if (cursor.consumed() == 0) {
    return;
  }
  Entry entry;
  entry.seq_bound = trace_->events[cursor.consumed() - 1].seq;
  entry.checkpoint = cursor.MakeCheckpoint();
  checkpoints_.push_back(std::move(entry));
}

void ReplaySeekIndex::Capture(const std::vector<uint64_t>& seqs,
                              size_t pool_size, bool track_digest) {
  if (plan_.empty() || seqs.empty()) {
    return;
  }
  ReplayCursor scout(*trace_, pool_size, track_digest);
  for (const uint64_t seq : seqs) {
    scout.AdvanceTo(seq);
    MaybeCapture(scout);
  }
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
  return best != nullptr ? best->checkpoint.next : 0;
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
