#include "src/pmem/replay_cursor.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

#include "src/pmem/persistency_model.h"

namespace mumak {

static_assert(kMediumPageSize / kCacheLineSize == 64,
              "one 64-bit dirty-line mask per page");

ReplayCursor::ReplayCursor(const RecordedTrace& trace, size_t pool_size,
                           bool track_digest)
    : trace_(trace),
      image_(pool_size),
      track_digest_(track_digest),
      dirty_mask_((pool_size + kMediumPageSize - 1) / kMediumPageSize) {
  Rewind(nullptr);
}

ReplayCursor::ReplayCursor(const RecordedTrace& trace,
                           const Checkpoint& checkpoint)
    : ReplayCursor(trace, checkpoint.image.size()) {
  Rewind(&checkpoint);
}

ReplayCursor::Checkpoint ReplayCursor::MakeCheckpoint() const {
  SettleDirtyLines();
  return {image_, next_, track_digest_, digest_};
}

void ReplayCursor::Rewind(const Checkpoint* checkpoint) {
  SettleDirtyLines();  // empties the dirty set; the digest is replaced
  if (checkpoint == nullptr) {
    image_.Clear();
    next_ = 0;
    // The footprint is empty, so Digest() is the zero-pool constant.
    digest_ = track_digest_ ? image_.Digest() : ImageDigest{};
    return;
  }
  image_.CopyFrom(checkpoint->image);
  next_ = checkpoint->next;
  track_digest_ = checkpoint->track_digest;
  digest_ = checkpoint->digest;
}

const PoolMedium& ReplayCursor::AdvanceTo(uint64_t seq) {
  // Raw-pointer walk: this loop touches every trace event once per
  // injection phase, so it avoids per-event accessor calls.
  const PmEvent* const events = trace_.events.data();
  const size_t count = trace_.events.size();
  const std::vector<uint64_t>& offset_index = trace_.payloads.offsets();
  const size_t indexed = offset_index.size();
  const uint64_t* const offsets = offset_index.data();
  const uint8_t* const payload_bytes = trace_.payloads.bytes().data();
  size_t i = next_;
  while (i < count && events[i].seq <= seq) {
    if (i < indexed && offsets[i] != PayloadStore::kNone) {
      const PmEvent& ev = events[i];
      assert(ev.offset + ev.size <= image_.size());
      // Mark, don't rehash (many stores hit a line between two digest
      // reads); a line's first mark folds its settled hash out.
      const uint64_t first = ev.offset / kCacheLineSize;
      const uint64_t last = (ev.offset + ev.size - 1) / kCacheLineSize;
      for (uint64_t line = first; track_digest_ && ev.size > 0 && line <= last;
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
      image_.Write(ev.offset, payload_bytes + offsets[i], ev.size);
    }
    ++i;
  }
  next_ = i;
  return image_;
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
    const RecordedTrace& trace, size_t pool_size,
    const std::vector<uint64_t>& boundaries) {
  std::vector<EpochSummary> summaries;
  summaries.reserve(boundaries.size());
  if (boundaries.empty()) {
    return summaries;
  }
  PoolMedium image(pool_size);
  const PmEvent* const events = trace.events.data();
  const size_t count = trace.events.size();
  const std::vector<uint64_t>& offset_index = trace.payloads.offsets();
  const size_t indexed = offset_index.size();
  const uint64_t* const offsets = offset_index.data();
  const uint8_t* const payload_bytes = trace.payloads.bytes().data();
  size_t i = 0;
  for (const uint64_t boundary : boundaries) {
    EpochSummary summary;
    summary.seq = boundary;
    while (i < count && events[i].seq <= boundary) {
      if (i < indexed && offsets[i] != PayloadStore::kNone) {
        const PmEvent& ev = events[i];
        assert(ev.offset + ev.size <= image.size());
        ++summary.stores;
        const uint8_t* const bytes = payload_bytes + offsets[i];
        if (std::memcmp(image.data() + ev.offset, bytes, ev.size) != 0) {
          ++summary.changed_stores;
          image.Write(ev.offset, bytes, ev.size);
        }
      }
      ++i;
    }
    summaries.push_back(summary);
  }
  return summaries;
}

}  // namespace mumak
