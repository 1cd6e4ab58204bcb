#include "src/core/verdict_cache.h"

#include <cstdio>
#include <cstring>
#include <fstream>

namespace mumak {
namespace {

void PutU32(std::ostream& out, uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutU64(std::ostream& out, uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

bool GetU32(std::istream& in, uint32_t* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(*v));
  return in.gcount() == sizeof(*v);
}

bool GetU64(std::istream& in, uint64_t* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(*v));
  return in.gcount() == sizeof(*v);
}

std::string Capped(const std::string& text) {
  if (text.size() <= VerdictCache::kMaxStringBytes) {
    return text;
  }
  return text.substr(0, VerdictCache::kMaxStringBytes);
}

}  // namespace

VerdictCache::Outcome VerdictCache::Lookup(const ImageDigest& digest,
                                           const uint8_t* image, size_t size,
                                           VerdictCacheEntry* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = map_.find(digest);
  if (it == map_.end()) {
    ++misses_;
    return Outcome::kMiss;
  }
  if (verify_ && !it->second.image.empty()) {
    const std::vector<uint8_t>& kept = it->second.image;
    if (kept.size() != size ||
        (size != 0 && std::memcmp(kept.data(), image, size) != 0)) {
      ++collisions_;
      return Outcome::kCollision;
    }
  }
  ++hits_;
  if (out != nullptr) {
    *out = it->second;
    out->image.clear();  // callers never need the retained bytes
  }
  return Outcome::kHit;
}

void VerdictCache::Insert(const ImageDigest& digest, VerdictCacheEntry entry,
                          const uint8_t* image, size_t size) {
  if (verify_ && image != nullptr) {
    entry.image.assign(image, image + size);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  map_.emplace(digest, std::move(entry));  // first insert wins
}

void VerdictCache::AbsorbFrom(const VerdictCache& other) {
  std::scoped_lock lock(mutex_, other.mutex_);
  for (const auto& [digest, entry] : other.map_) {
    if (map_.find(digest) != map_.end()) {
      continue;  // first insert wins, matching Insert
    }
    VerdictCacheEntry copy = entry;
    copy.image.clear();  // verify-mode images are never persisted
    map_.emplace(digest, std::move(copy));
  }
}

void VerdictCache::ForEach(
    const std::function<void(const ImageDigest&, const VerdictCacheEntry&)>&
        fn) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [digest, entry] : map_) {
    if (entry.image.empty()) {
      fn(digest, entry);
      continue;
    }
    VerdictCacheEntry copy = entry;
    copy.image.clear();  // verify-mode images stay process-local
    fn(digest, copy);
  }
}

size_t VerdictCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return map_.size();
}

uint64_t VerdictCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

uint64_t VerdictCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

uint64_t VerdictCache::collisions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return collisions_;
}

bool VerdictCache::Load(const std::string& path, uint64_t trace_fingerprint,
                        std::string* warning) {
  warning->clear();
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return true;  // cold cache: nothing to load, nothing to warn about
  }
  uint32_t magic = 0, version = 0;
  uint64_t fingerprint = 0, count = 0;
  if (!GetU32(in, &magic) || magic != kMagic) {
    *warning = "verdict cache " + path + ": not a cache file, ignoring";
    return false;
  }
  if (!GetU32(in, &version) || version == 0 || version > kVersion) {
    *warning = "verdict cache " + path + ": unsupported version " +
               std::to_string(version) + " (this build reads <= " +
               std::to_string(kVersion) + "), ignoring";
    return false;
  }
  if (!GetU64(in, &fingerprint) || !GetU64(in, &count)) {
    *warning = "verdict cache " + path + ": truncated header, ignoring";
    return false;
  }
  if (fingerprint != trace_fingerprint) {
    *warning = "verdict cache " + path +
               ": stale (trace fingerprint changed — different target, "
               "workload or build), starting cold";
    return false;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  map_.clear();
  // A truncated or corrupt entry ends the load; the prefix before it is
  // kept (and counted as loaded).
  const std::string truncated = "verdict cache " + path + ": truncated after ";
  for (uint64_t i = 0; i < count; ++i) {
    ImageDigest digest;
    VerdictCacheEntry entry;
    uint32_t flags = 0, detail_len = 0, signal_len = 0;
    if (!GetU64(in, &digest.lo) || !GetU64(in, &digest.hi) ||
        !GetU32(in, &entry.status) || !GetU32(in, &flags) ||
        !GetU64(in, &entry.recovery_wall_us) ||
        !GetU64(in, &entry.first_seq) || !GetU32(in, &detail_len) ||
        !GetU32(in, &signal_len)) {
      *warning = truncated + std::to_string(map_.size()) + " of " +
                 std::to_string(count) + " entries, keeping the prefix";
      break;
    }
    if (detail_len > kMaxStringBytes || signal_len > kMaxStringBytes) {
      *warning = "verdict cache " + path + ": corrupt entry " +
                 std::to_string(i) + " (oversized string), keeping " +
                 std::to_string(map_.size()) + " entries";
      break;
    }
    entry.timed_out = (flags & 1u) != 0;
    entry.detail.resize(detail_len);
    in.read(entry.detail.data(), detail_len);
    const bool detail_ok = static_cast<uint32_t>(in.gcount()) == detail_len;
    entry.signal_name.resize(signal_len);
    in.read(entry.signal_name.data(), signal_len);
    if (!detail_ok || static_cast<uint32_t>(in.gcount()) != signal_len) {
      *warning = truncated + std::to_string(map_.size()) + " of " +
                 std::to_string(count) + " entries, keeping the prefix";
      break;
    }
    map_.emplace(digest, std::move(entry));
  }
  loaded_ = map_.size();
  return true;
}

bool VerdictCache::Save(const std::string& path, uint64_t trace_fingerprint,
                        std::string* error) const {
  error->clear();
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      *error = "verdict cache: cannot write " + tmp;
      return false;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    PutU32(out, kMagic);
    PutU32(out, kVersion);
    PutU64(out, trace_fingerprint);
    PutU64(out, map_.size());
    for (const auto& [digest, entry] : map_) {
      const std::string detail = Capped(entry.detail);
      const std::string signal = Capped(entry.signal_name);
      PutU64(out, digest.lo);
      PutU64(out, digest.hi);
      PutU32(out, entry.status);
      PutU32(out, entry.timed_out ? 1u : 0u);
      PutU64(out, entry.recovery_wall_us);
      PutU64(out, entry.first_seq);
      PutU32(out, static_cast<uint32_t>(detail.size()));
      PutU32(out, static_cast<uint32_t>(signal.size()));
      out.write(detail.data(), detail.size());
      out.write(signal.data(), signal.size());
    }
    if (!out) {
      *error = "verdict cache: write to " + tmp + " failed";
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    *error = "verdict cache: cannot rename " + tmp + " to " + path;
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace mumak
