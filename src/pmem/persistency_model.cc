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
  const uint64_t base = line * kCacheLineSize;
  assert(base + kCacheLineSize <= durable_.size());
  if (auto it = cache_.find(line); it != cache_.end()) {
    *out = it->second.data;
    return;
  }
  if (auto it = wpq_.find(line); it != wpq_.end()) {
    *out = it->second.data;
    return;
  }
  std::memcpy(out->data(), durable_.data() + base, kCacheLineSize);
}

PersistencyModel::CacheLine& PersistencyModel::Touch(uint64_t line) {
  auto it = cache_.find(line);
  if (it != cache_.end()) {
    return it->second;
  }
  CacheLine fresh;
  SnapshotLine(line, &fresh.data);
  return cache_.emplace(line, fresh).first->second;
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
    auto it = wpq_.find(line);
    if (it == wpq_.end()) {
      CacheLine snapshot;
      SnapshotLine(line, &snapshot.data);
      it = wpq_.emplace(line, snapshot).first;
    }
    std::memcpy(it->second.data.data() + in_line, data.data() + written,
                chunk);
    // A non-temporal store to a line that is also cached forces the cached
    // copy to reflect the new value (it remains the visible copy).
    if (auto cached = cache_.find(line); cached != cache_.end()) {
      std::memcpy(cached->second.data.data() + in_line, data.data() + written,
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
  cache_.erase(line);   // invalidates the line
  wpq_.erase(line);     // any buffered flush of this line is subsumed
}

void PersistencyModel::ClflushOpt(uint64_t offset) {
  ++stats_.optimized_flushes;
  const uint64_t line = LineIndex(offset);
  CacheLine snapshot;
  SnapshotLine(line, &snapshot.data);
  wpq_[line] = snapshot;
  cache_.erase(line);  // invalidates the line
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
  cache_.erase(line);
}

void PersistencyModel::Fence() {
  ++stats_.fences;
  for (const auto& [line, snapshot] : wpq_) {
    CommitLineToDurable(line, snapshot.data);
  }
  wpq_.clear();
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
    if (auto it = cache_.find(line); it != cache_.end()) {
      std::memcpy(out.data() + read, it->second.data.data() + in_line, chunk);
    } else if (auto wit = wpq_.find(line); wit != wpq_.end()) {
      std::memcpy(out.data() + read, wit->second.data.data() + in_line, chunk);
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
    if (cache_.find(line) == cache_.end()) {
      lines.push_back(line);
    }
  }
  // The overlays are hash maps; sort here so callers (and the Yat-like
  // ordering enumeration built on top) see a deterministic line order.
  std::sort(lines.begin(), lines.end());
  return lines;
}

bool PersistencyModel::IsLineDirty(uint64_t line) const {
  return cache_.find(line) != cache_.end();
}

bool PersistencyModel::IsLineInWpq(uint64_t line) const {
  return wpq_.find(line) != wpq_.end();
}

size_t PersistencyModel::VolatileFootprintBytes() const {
  constexpr size_t kNodeOverhead = 48;  // hash-node bookkeeping estimate
  return (cache_.size() + wpq_.size()) * (sizeof(CacheLine) + kNodeOverhead);
}

}  // namespace mumak
