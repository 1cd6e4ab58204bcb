// Content-addressed verdict memo for fault injection. Most failure points
// are redundant: between two stores, every flush/fence-adjacent failure
// point yields the same graceful crash image, and deterministic recovery
// on byte-identical images yields the same verdict. The cache maps an
// ImageDigest to the JournalVerdict the recovery oracle produced the first
// time that image content was checked, so the injection loop can attribute
// it to later failure points (with `dedup_of` provenance on findings)
// without invoking recovery at all — the AFL-style "only execute novel
// states" move, applied to crash images. A process holds one cache; a
// forked fleet worker uses the copy it inherits.
//
// The memo persists across runs as an MJN1 file (the campaign journal's
// framing) opened by a fingerprint of the profiled trace, read through the
// journal's record reader: a record that fails its CRC is skipped with a
// warning, a torn tail keeps the intact prefix, and a file that is not
// MJN1 or carries a stale fingerprint starts cold with a warning. A cache
// is only a memo, so starting cold is always correct.

#ifndef MUMAK_SRC_CORE_VERDICT_CACHE_H_
#define MUMAK_SRC_CORE_VERDICT_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/observability/journal.h"
#include "src/pmem/image_digest.h"

namespace mumak {

class VerdictCache {
 public:
  enum class Outcome {
    kMiss,       // digest unknown: run the oracle, then Insert
    kHit,        // verdict attributed from the cache
    kLater,      // inserted this run by a check at this seq or a later one:
                 // run the oracle again, insert nothing
    kCollision,  // verify mode: digest matched but the bytes did not —
                 // run the oracle, do NOT insert (the digest is taken)
  };

  // `verify` enables the byte-compare mode (--verify-dedup): Insert keeps
  // a copy of each distinct image, and a hit on an entry with bytes needs
  // equal bytes. Entries without bytes (loaded ones, the fleet scheduler's)
  // are trusted.
  explicit VerdictCache(bool verify = false) : verify_(verify) {}

  // Thread-safe; the one probe of a check at failure point `seq`. Loaded
  // entries are always honoured. An entry inserted this run only when its
  // seq is below `seq`: one born at a later seq (a concurrent or
  // earlier-dispatched range got there first) would attribute a verdict
  // backwards, so the oracle runs again instead. `image` and `size` are
  // read only in verify mode.
  Outcome Lookup(const ImageDigest& digest, uint64_t seq,
                 const uint8_t* image, size_t size, JournalVerdict* out);
  // Files the oracle's verdict (its seq names the point checked) for a
  // digest first seen this run; first insert wins.
  void Insert(const ImageDigest& digest, JournalVerdict verdict,
              const uint8_t* image, size_t size);
  // Files an entry an earlier run produced (a fleet bootstrap's record):
  // always honoured, counted in loaded(); first one wins.
  void Preload(const ImageDigest& digest, JournalVerdict verdict);
  // The loaded entries, for shipping to stateless fleet workers.
  std::vector<std::pair<ImageDigest, JournalVerdict>> LoadedEntries() const;

  size_t size() const;
  bool verify() const { return verify_; }
  uint64_t collisions() const { return collisions_; }
  uint64_t loaded() const { return loaded_; }
  // One per distinct image whose oracle ran this run.
  uint64_t inserted() const { return inserted_; }

  // The file: the MJN1 magic, {"type": "verdict_cache", "version":
  // kFileVersion, "fingerprint": <16 hex digits>}, then one CacheRecord
  // per entry. A CacheRecord is "type": "verdict", the verdict codec
  // (WriteVerdictFields) and the digest; the fleet bootstrap ships loaded
  // entries as these too. Version 2: zero-relative digests (an older
  // file, which has no version, holds digests no image has now).
  static constexpr uint64_t kFileVersion = 2;
  static std::string CacheRecord(const ImageDigest& digest,
                                 const JournalVerdict& verdict);
  // False for another type, a missing or malformed digest, or a status
  // other than ok, unrecoverable, crashed and timeout.
  static bool ReadCacheRecord(const JsonValue& record, ImageDigest* digest,
                              JournalVerdict* verdict);

  // Loads the file into this (empty) cache. Missing file: true, no
  // warning. Not MJN1, or a first record with another version or a stale
  // or missing fingerprint: false with a warning, nothing loaded.
  // Otherwise true, keeping every entry read; skipped records and a torn
  // tail add a warning.
  bool Load(const std::string& path, uint64_t trace_fingerprint,
            std::string* warning);
  // Writes every entry to `path` + ".tmp", then renames it over `path`, so
  // an interrupted run leaves the old file intact. An entry whose record
  // exceeds the journal's record cap is left out. False with `*error` set
  // on I/O failure.
  bool Save(const std::string& path, uint64_t trace_fingerprint,
            std::string* error) const;

 private:
  struct Entry {
    JournalVerdict verdict;
    bool loaded = false;
    std::vector<uint8_t> image;  // verify mode only; never persisted
  };

  const bool verify_;
  mutable std::mutex mutex_;  // guards map_; the counters are atomic
  std::unordered_map<ImageDigest, Entry, ImageDigestHash> map_;
  std::atomic<uint64_t> collisions_{0};
  std::atomic<uint64_t> loaded_{0};
  std::atomic<uint64_t> inserted_{0};
};

}  // namespace mumak

#endif  // MUMAK_SRC_CORE_VERDICT_CACHE_H_
