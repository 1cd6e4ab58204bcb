#include "src/pmem/persistency_model.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace mumak {

PersistencyModel::PersistencyModel(size_t pool_size)
    : owned_(std::make_unique<PoolMedium>(pool_size)),
      medium_(owned_.get()),
      durable_(medium_->mutable_data(), pool_size) {}

PersistencyModel PersistencyModel::FromDurableImage(
    std::vector<uint8_t> image) {
  PersistencyModel model(0);
  *model.owned_ = PoolMedium::FromBytes(image);
  model.durable_ = {model.owned_->mutable_data(), model.owned_->size()};
  return model;
}

PersistencyModel PersistencyModel::FromMedium(PoolMedium* medium) {
  PersistencyModel model(0);
  model.owned_.reset();
  model.medium_ = medium;
  model.durable_ = {medium->mutable_data(), medium->size()};
  return model;
}

void PersistencyModel::SnapshotLine(
    uint64_t line, std::array<uint8_t, kCacheLineSize>* out) const {
  if (const CacheLine* cached = cache_.Find(line)) {
    *out = cached->data;
    return;
  }
  SnapshotBelowCache(line, out);
}

void PersistencyModel::SnapshotBelowCache(
    uint64_t line, std::array<uint8_t, kCacheLineSize>* out) const {
  const uint64_t base = line * kCacheLineSize;
  assert(base + kCacheLineSize <= durable_.size());
  if (const CacheLine* pending = wpq_.Find(line)) {
    *out = pending->data;
    return;
  }
  std::memcpy(out->data(), durable_.data() + base, kCacheLineSize);
}

PersistencyModel::CacheLine& PersistencyModel::Touch(uint64_t line) {
  const auto [cl, inserted] = cache_.TryEmplace(line);
  if (inserted) {
    SnapshotBelowCache(line, &cl->data);
  }
  return *cl;
}

void PersistencyModel::Store(uint64_t offset, std::span<const uint8_t> data) {
  assert(offset + data.size() <= durable_.size());
  ++stats_.stores;
  size_t written = 0;
  while (written < data.size()) {
    const uint64_t at = offset + written;
    const uint64_t line = LineIndex(at);
    const size_t in_line = at - LineBase(at);
    const size_t chunk =
        std::min(data.size() - written, kCacheLineSize - in_line);
    CacheLine& cl = Touch(line);
    std::memcpy(cl.data.data() + in_line, data.data() + written, chunk);
    written += chunk;
  }
}

void PersistencyModel::NtStore(uint64_t offset,
                               std::span<const uint8_t> data) {
  assert(offset + data.size() <= durable_.size());
  ++stats_.nt_stores;
  size_t written = 0;
  while (written < data.size()) {
    const uint64_t at = offset + written;
    const uint64_t line = LineIndex(at);
    const size_t in_line = at - LineBase(at);
    const size_t chunk =
        std::min(data.size() - written, kCacheLineSize - in_line);
    // A fresh WPQ copy starts from the visible content: the cached copy,
    // else the durable one.
    CacheLine* cached = cache_.Find(line);
    const auto [pending, inserted] = wpq_.TryEmplace(line);
    if (inserted && cached != nullptr) {
      pending->data = cached->data;
    } else if (inserted) {
      std::memcpy(pending->data.data(), durable_.data() + LineBase(at),
                  kCacheLineSize);
    }
    std::memcpy(pending->data.data() + in_line, data.data() + written, chunk);
    // A non-temporal store to a line that is also cached forces the cached
    // copy to reflect the new value (it remains the visible copy).
    if (cached != nullptr) {
      std::memcpy(cached->data.data() + in_line, data.data() + written,
                  chunk);
    }
    written += chunk;
  }
}

void PersistencyModel::CommitLineToDurable(
    uint64_t line, const std::array<uint8_t, kCacheLineSize>& data) {
  const uint64_t base = line * kCacheLineSize;
  assert(base + kCacheLineSize <= durable_.size());
  medium_->Write(base, data.data(), kCacheLineSize);
  ++stats_.committed_lines;
}

void PersistencyModel::Clflush(uint64_t offset) {
  ++stats_.clflushes;
  const uint64_t line = LineIndex(offset);
  CacheLine snapshot;
  SnapshotLine(line, &snapshot.data);
  // clflush is ordered with respect to stores: the write-back is durable
  // without waiting for a fence.
  CommitLineToDurable(line, snapshot.data);
  cache_.Erase(line);  // invalidates the line
  wpq_.Erase(line);    // any buffered flush of this line is subsumed
}

void PersistencyModel::ClflushOpt(uint64_t offset) {
  ++stats_.optimized_flushes;
  const uint64_t line = LineIndex(offset);
  CacheLine snapshot;
  SnapshotLine(line, &snapshot.data);
  wpq_[line] = snapshot;
  cache_.Erase(line);  // invalidates the line
}

void PersistencyModel::Clwb(uint64_t offset) {
  ++stats_.optimized_flushes;
  const uint64_t line = LineIndex(offset);
  CacheLine snapshot;
  SnapshotLine(line, &snapshot.data);
  wpq_[line] = snapshot;
  // clwb does not invalidate: the cached copy (if any) stays resident. If it
  // is not dirtied again, its content equals the snapshot, so we can drop it
  // to keep the dirty set meaning "differs from a pending/durable copy".
  cache_.Erase(line);
}

void PersistencyModel::Fence() {
  ++stats_.fences;
  for (const auto& [line, snapshot] : wpq_) {
    CommitLineToDurable(line, snapshot.data);
  }
  wpq_.Clear();
}

uint64_t PersistencyModel::RmwAdd(uint64_t offset, uint64_t delta) {
  assert(offset % kAtomicGranule == 0);
  ++stats_.rmws;
  uint64_t value = LoadU64(offset);
  const uint64_t updated = value + delta;
  uint8_t bytes[sizeof(uint64_t)];
  std::memcpy(bytes, &updated, sizeof(updated));
  Store(offset, bytes);
  --stats_.stores;  // counted as an RMW, not a plain store
  // RMW flushes the store buffer and has fence semantics (§2).
  Fence();
  --stats_.fences;
  return value;
}

bool PersistencyModel::RmwCas(uint64_t offset, uint64_t expected,
                              uint64_t desired) {
  assert(offset % kAtomicGranule == 0);
  ++stats_.rmws;
  const uint64_t value = LoadU64(offset);
  bool swapped = false;
  if (value == expected) {
    uint8_t bytes[sizeof(uint64_t)];
    std::memcpy(bytes, &desired, sizeof(desired));
    Store(offset, bytes);
    --stats_.stores;
    swapped = true;
  }
  Fence();
  --stats_.fences;
  return swapped;
}

void PersistencyModel::Load(uint64_t offset, std::span<uint8_t> out) const {
  assert(offset + out.size() <= durable_.size());
  size_t read = 0;
  while (read < out.size()) {
    const uint64_t at = offset + read;
    const uint64_t line = LineIndex(at);
    const size_t in_line = at - LineBase(at);
    const size_t chunk = std::min(out.size() - read, kCacheLineSize - in_line);
    if (const CacheLine* cached = cache_.Find(line)) {
      std::memcpy(out.data() + read, cached->data.data() + in_line, chunk);
    } else if (const CacheLine* pending = wpq_.Find(line)) {
      std::memcpy(out.data() + read, pending->data.data() + in_line, chunk);
    } else {
      std::memcpy(out.data() + read, durable_.data() + at, chunk);
    }
    read += chunk;
  }
}

uint64_t PersistencyModel::LoadU64(uint64_t offset) const {
  uint64_t value = 0;
  Load(offset, std::span<uint8_t>(reinterpret_cast<uint8_t*>(&value),
                                  sizeof(value)));
  return value;
}

std::vector<uint8_t> PersistencyModel::GracefulImage() const {
  std::vector<uint8_t> image(durable_.begin(), durable_.end());
  // Apply WPQ snapshots first, then the cache overlay: resident lines hold
  // the newest program-order content.
  for (const auto& [line, snapshot] : wpq_) {
    std::memcpy(image.data() + line * kCacheLineSize, snapshot.data.data(),
                kCacheLineSize);
  }
  for (const auto& [line, cl] : cache_) {
    std::memcpy(image.data() + line * kCacheLineSize, cl.data.data(),
                kCacheLineSize);
  }
  return image;
}

void PersistencyModel::GracefulImageInto(PoolMedium* out) const {
  out->CopyFrom(*medium_);
  // WPQ first, then the cache: resident lines hold the newest program-order
  // content.
  for (const auto& [line, snapshot] : wpq_) {
    out->Write(line * kCacheLineSize, snapshot.data.data(), kCacheLineSize);
  }
  for (const auto& [line, cl] : cache_) {
    out->Write(line * kCacheLineSize, cl.data.data(), kCacheLineSize);
  }
}

std::vector<uint8_t> PersistencyModel::PowerFailImage() const {
  return std::vector<uint8_t>(durable_.begin(), durable_.end());
}

std::vector<uint8_t> PersistencyModel::PowerFailImageWithLines(
    std::span<const uint64_t> surviving_lines) const {
  std::vector<uint8_t> image(durable_.begin(), durable_.end());
  for (uint64_t line : surviving_lines) {
    CacheLine snapshot;
    SnapshotLine(line, &snapshot.data);
    std::memcpy(image.data() + line * kCacheLineSize, snapshot.data.data(),
                kCacheLineSize);
  }
  return image;
}

std::vector<uint64_t> PersistencyModel::DirtyLines() const {
  std::vector<uint64_t> lines;
  lines.reserve(cache_.size() + wpq_.size());
  for (const auto& [line, cl] : cache_) {
    lines.push_back(line);
  }
  for (const auto& [line, snapshot] : wpq_) {
    if (!cache_.Contains(line)) {
      lines.push_back(line);
    }
  }
  // The overlays are hash tables; sort here so callers (and the Yat-like
  // ordering enumeration built on top) see a deterministic line order.
  std::sort(lines.begin(), lines.end());
  return lines;
}

bool PersistencyModel::IsLineDirty(uint64_t line) const {
  return cache_.Contains(line);
}

bool PersistencyModel::IsLineInWpq(uint64_t line) const {
  return wpq_.Contains(line);
}

size_t PersistencyModel::VolatileFootprintBytes() const {
  // Table 2 model constant (hash-node bookkeeping of the original
  // overlay), not the FlatTable's bytes.
  constexpr size_t kNodeOverhead = 48;
  return (cache_.size() + wpq_.size()) * (sizeof(CacheLine) + kNodeOverhead);
}

}  // namespace mumak
