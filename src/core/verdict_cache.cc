#include "src/core/verdict_cache.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>

#include "src/observability/flat_json.h"

namespace mumak {

VerdictCache::Outcome VerdictCache::Lookup(const ImageDigest& digest,
                                           uint64_t seq,
                                           const uint8_t* image, size_t size,
                                           JournalVerdict* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = map_.find(digest);
  if (it == map_.end()) {
    return Outcome::kMiss;
  }
  const Entry& entry = it->second;
  if (verify_ && !entry.image.empty() &&
      (entry.image.size() != size ||
       (size != 0 && std::memcmp(entry.image.data(), image, size) != 0))) {
    ++collisions_;
    return Outcome::kCollision;
  }
  if (!entry.loaded && entry.verdict.seq >= seq) {
    return Outcome::kLater;
  }
  if (out != nullptr) {
    *out = entry.verdict;
  }
  return Outcome::kHit;
}

void VerdictCache::Insert(const ImageDigest& digest, JournalVerdict verdict,
                          const uint8_t* image, size_t size) {
  Entry entry;
  entry.verdict = std::move(verdict);
  if (verify_ && image != nullptr) {
    entry.image.assign(image, image + size);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (map_.emplace(digest, std::move(entry)).second) {  // first insert wins
    ++inserted_;
  }
}

void VerdictCache::Preload(const ImageDigest& digest, JournalVerdict verdict) {
  Entry entry;
  entry.verdict = std::move(verdict);
  entry.loaded = true;
  std::lock_guard<std::mutex> lock(mutex_);
  if (map_.emplace(digest, std::move(entry)).second) {
    ++loaded_;
  }
}

std::vector<std::pair<ImageDigest, JournalVerdict>>
VerdictCache::LoadedEntries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<ImageDigest, JournalVerdict>> out;
  for (const auto& [digest, entry] : map_) {
    if (entry.loaded) {
      out.emplace_back(digest, entry.verdict);
    }
  }
  return out;
}

size_t VerdictCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return map_.size();
}

std::string VerdictCache::CacheRecord(const ImageDigest& digest,
                                      const JournalVerdict& verdict) {
  JsonObject record;
  record.Str("type", "verdict");
  WriteVerdictFields(verdict, /*with_worker=*/false, &record, &digest);
  return record.Finish();
}

bool VerdictCache::ReadCacheRecord(const JsonValue& record,
                                   ImageDigest* digest,
                                   JournalVerdict* verdict) {
  if (record.Str("type") != "verdict") {
    return false;
  }
  std::optional<ImageDigest> parsed;
  *verdict = ReadVerdictFields(record, &parsed);
  const std::string& status = verdict->status;
  if (!parsed.has_value() ||
      (status != "ok" && status != "unrecoverable" && status != "crashed" &&
       status != "timeout")) {
    return false;
  }
  *digest = *parsed;
  return true;
}

bool VerdictCache::Load(const std::string& path, uint64_t trace_fingerprint,
                        std::string* warning) {
  warning->clear();
  std::error_code missing;
  if (!std::filesystem::exists(path, missing)) {
    return true;  // cold cache: nothing to load, nothing to warn about
  }
  // The first record must carry this version and trace's fingerprint.
  std::optional<bool> fresh;
  uint64_t unreadable = 0;
  JournalRecordScan scan = ReadJournalRecords(
      path, [&](const JsonValue& record, std::string_view) {
        ImageDigest digest;
        JournalVerdict verdict;
        if (!fresh.has_value()) {
          fresh = record.Str("type") == "verdict_cache" &&
                  record.U64("version") == kFileVersion &&
                  record.Hex64("fingerprint") == trace_fingerprint;
        } else if (!*fresh) {
          return;
        } else if (ReadCacheRecord(record, &digest, &verdict)) {
          Preload(digest, std::move(verdict));
        } else {
          ++unreadable;
        }
      });
  const std::string prefix = "verdict cache " + path + ": ";
  if (!scan.ok || !fresh.value_or(false)) {
    *warning = prefix +
               (scan.ok ? "stale or damaged trace fingerprint (different "
                          "target, workload or build?)"
                        : scan.error) +
               ", starting cold";
    return false;
  }
  if (unreadable > 0) {
    scan.warnings.push_back(std::to_string(unreadable) +
                            " record(s) are not cache entries; skipped");
  }
  if (!scan.warnings.empty()) {
    *warning = prefix;
    for (const std::string& text : scan.warnings) {
      *warning += text + "; ";
    }
    *warning += "kept " + std::to_string(loaded()) + " entries";
  }
  return true;
}

bool VerdictCache::Save(const std::string& path, uint64_t trace_fingerprint,
                        std::string* error) const {
  error->clear();
  std::string bytes(kJournalMagic, sizeof(kJournalMagic));
  bytes += FrameJournalRecord(JsonObject()
                                  .Str("type", "verdict_cache")
                                  .U64("version", kFileVersion)
                                  .Hex64("fingerprint", trace_fingerprint)
                                  .Finish());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [digest, entry] : map_) {
      const std::string record = CacheRecord(digest, entry.verdict);
      if (record.size() <= kJournalMaxRecordBytes) {
        bytes += FrameJournalRecord(record);
      }
    }
  }
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out || std::rename(tmp.c_str(), path.c_str()) != 0) {
    *error = "verdict cache: cannot write " + tmp + " and rename it to " +
             path;
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace mumak
