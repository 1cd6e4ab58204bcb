#include "src/pmem/replay_cursor.h"

#include <algorithm>
#include <cassert>

#include "src/pmem/persistency_model.h"

namespace mumak {

static_assert(kMediumPageSize / kCacheLineSize == 64,
              "one 64-bit dirty-line mask per page");

ReplayCursor::ReplayCursor(const TraceStream& trace, size_t pool_size,
                           bool track_digest, uint32_t seek_checkpoints)
    : trace_(trace),
      image_(pool_size),
      track_digest_(track_digest),
      dirty_mask_((pool_size + kMediumPageSize - 1) / kMediumPageSize) {
  const size_t n = trace.blocks();
  for (uint32_t k = 1; k <= seek_checkpoints; ++k) {
    const size_t block = k * n / (static_cast<size_t>(seek_checkpoints) + 1);
    if (block == 0 || (!plan_.empty() && plan_.back() >= block)) {
      continue;  // too few blocks for this many checkpoints
    }
    plan_.push_back(block);
  }
  checkpoints_.reserve(plan_.size());
  Restore(checkpoints_.size());
}

const PoolMedium& ReplayCursor::AdvanceTo(uint64_t seq) {
  // The latest checkpoint at or before `seq`: every event it applied lies
  // before its block, below the block's first seq.
  size_t best = checkpoints_.size();
  for (size_t k = 0; k < checkpoints_.size() &&
                     trace_.block(plan_[k]).first_seq - 1 <= seq;
       ++k) {
    best = k;
  }
  const bool ahead = best < checkpoints_.size() &&
                     trace_.block_start(plan_[best]) > consumed();
  if (seq < seq_ || ahead) {
    Restore(best);
  }
  Advance(seq);
  seq_ = seq;
  return image_;
}

void ReplayCursor::Restore(size_t k) {
  // The dirty lines' hashes are replaced with the digest, not settled.
  for (const uint32_t page : dirty_pages_) {
    dirty_mask_[page] = 0;
  }
  dirty_pages_.clear();
  pos_ = 0;
  if (k >= checkpoints_.size()) {
    image_.Clear();
    block_ = 0;
    digest_ = ImageDigest{};  // the zero image's
    return;
  }
  image_.CopyFrom(checkpoints_[k].image);
  block_ = plan_[k];
  digest_ = checkpoints_[k].digest;
  seek_skipped_events_ += trace_.block_start(block_);
}

void ReplayCursor::Advance(uint64_t seq) {
  while (block_ < trace_.blocks()) {
    if (pos_ == 0 && trace_.block(block_).first_seq > seq) {
      return;  // the block starts past `seq`: leave it untouched
    }
    if (pos_ == 0 && checkpoints_.size() < plan_.size() &&
        plan_[checkpoints_.size()] == block_) {
      SettleDirtyLines();
      checkpoints_.push_back({image_, digest_});
    }
    if (decoded_ != block_) {
      trace_.DecodeBlock(block_, &decoder_);
      decoded_ = block_;
      ++blocks_decoded_;
    }
    // Raw-pointer walk: this loop touches every trace event once per
    // injection phase, so it avoids per-event accessor calls.
    const TraceBlockView& view = decoder_.view();
    const uint64_t* const seqs = view.seqs;
    const uint64_t* const offsets = view.offsets;
    const uint32_t* const sizes = view.sizes;
    const uint64_t* const payload_offsets = view.payload_offsets;
    size_t i = pos_;
    while (i < view.count && seqs[i] <= seq) {
      if (payload_offsets[i] != TraceBlockView::kNoPayload) {
        const uint64_t offset = offsets[i];
        const uint32_t size = sizes[i];
        assert(offset + size <= image_.size());
        // Mark, don't rehash (many stores hit a line between two digest
        // reads); a line's first mark folds its settled hash out.
        const uint64_t first = offset / kCacheLineSize;
        const uint64_t last = (offset + size - 1) / kCacheLineSize;
        for (uint64_t line = first; track_digest_ && size > 0 && line <= last;
             ++line) {
          uint64_t& mask = dirty_mask_[line / 64];
          const uint64_t bit = uint64_t{1} << (line % 64);
          if ((mask & bit) == 0) {
            if (mask == 0) {
              dirty_pages_.push_back(static_cast<uint32_t>(line / 64));
            }
            mask |= bit;
            DigestToggleLine(&digest_, LineHash(line));
          }
        }
        image_.Write(offset, view.payload_arena + payload_offsets[i], size);
      }
      ++i;
    }
    pos_ = i;
    if (pos_ < view.count) {
      return;  // stopped inside the block
    }
    ++block_;
    pos_ = 0;
  }
}

uint64_t ReplayCursor::LineHash(uint64_t line) const {
  const size_t at = line * kCacheLineSize;
  const size_t len = std::min(kCacheLineSize, image_.size() - at);
  return HashImageLine(image_.data() + at, len, line);
}

void ReplayCursor::SettleDirtyLines() const {
  for (const uint32_t page : dirty_pages_) {
    for (uint64_t mask = dirty_mask_[page]; mask != 0; mask &= mask - 1) {
      const uint64_t line = uint64_t{page} * 64 + __builtin_ctzll(mask);
      DigestToggleLine(&digest_, LineHash(line));  // XOR in the fresh one
    }
    dirty_mask_[page] = 0;
  }
  dirty_pages_.clear();
}

ImageDigest ReplayCursor::Digest() const {
  assert(track_digest_);
  SettleDirtyLines();
  return digest_;
}

std::vector<EpochSummary> SummarizeEpochs(
    const TraceStream& trace, const std::vector<uint64_t>& boundaries) {
  std::vector<EpochSummary> summaries;
  summaries.reserve(boundaries.size());
  TraceBlockDecoder decoder;
  const TraceBlockView* view = nullptr;
  size_t next_block = 0;  // the next block to decode
  size_t i = 0;           // next event within *view
  for (const uint64_t boundary : boundaries) {
    EpochSummary summary;
    summary.seq = boundary;
    for (;;) {
      if (view == nullptr || i == view->count) {
        if (next_block == trace.blocks() ||
            trace.block(next_block).first_seq > boundary) {
          break;
        }
        view = &trace.DecodeBlock(next_block++, &decoder);
        i = 0;
        continue;
      }
      if (view->seqs[i] > boundary) {
        break;
      }
      if (view->HasPayload(i)) {
        ++summary.stores;
      }
      ++i;
    }
    summaries.push_back(summary);
  }
  return summaries;
}

}  // namespace mumak
