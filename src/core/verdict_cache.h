// Content-addressed verdict memo for fault injection. Most failure points
// are redundant: between two stores, every flush/fence-adjacent failure
// point yields the same graceful crash image, and deterministic recovery
// on byte-identical images yields the same verdict. The cache maps an
// ImageDigest to the verdict the recovery oracle produced the first time
// that image content was checked, so the injection loop can attribute the
// cached verdict to later failure points (with `dedup_of` provenance on
// findings) without invoking recovery at all — the AFL-style "only execute
// novel states" move, applied to crash images.
//
// The memo can also persist across runs: a versioned binary file keyed by
// a fingerprint of the profiled trace, so a repeated campaign over an
// unchanged target starts with every verdict already known. Loading is
// corruption-tolerant like the campaign journal reader
// (src/observability/journal.h): bad magic, future versions, stale
// fingerprints, truncated or internally inconsistent entries degrade to a
// warning plus whatever prefix parsed cleanly, never a crash or an
// allocation the file does not back. The format carries no checksum, so
// a flipped byte inside an entry is not detected.

#ifndef MUMAK_SRC_CORE_VERDICT_CACHE_H_
#define MUMAK_SRC_CORE_VERDICT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/pmem/image_digest.h"

namespace mumak {

// One memoised oracle verdict. Mirrors the fields the injection loop puts
// on findings; `first_seq` records the failure point (instruction counter)
// whose check produced the verdict — the provenance reported on
// deduplicated findings.
struct VerdictCacheEntry {
  uint32_t status = 0;  // RecoveryStatus as u32
  bool timed_out = false;
  uint64_t recovery_wall_us = 0;
  uint64_t first_seq = 0;
  std::string detail;
  std::string signal_name;
  // Byte copy of the image, retained only in verify mode (never
  // persisted): digest hits are byte-compared against it so a 128-bit
  // collision downgrades to a miss instead of a wrong verdict.
  std::vector<uint8_t> image;
};

class VerdictCache {
 public:
  enum class Outcome {
    kMiss,       // digest unknown: run the oracle, then Insert
    kHit,        // verdict attributed from the cache
    kCollision,  // verify mode: digest matched but the bytes did not —
                 // run the oracle, do NOT insert (the digest is taken)
  };

  // `verify` enables the byte-compare mode (--verify-dedup): Insert keeps
  // a copy of each distinct image and Lookup only reports kHit when the
  // bytes match. Entries loaded from a persistent cache carry no image and
  // are trusted (documented limit of cross-run verification).
  explicit VerdictCache(bool verify = false) : verify_(verify) {}

  // Thread-safe. `image`/`size` are consulted only in verify mode.
  Outcome Lookup(const ImageDigest& digest, const uint8_t* image,
                 size_t size, VerdictCacheEntry* out);

  // Records the verdict for a digest first seen this run. First insert
  // wins (concurrent workers may check identical images back-to-back); in
  // verify mode the image bytes are copied into the entry.
  void Insert(const ImageDigest& digest, VerdictCacheEntry entry,
              const uint8_t* image, size_t size);

  // Folds every entry of `other` this cache does not already hold into it
  // (first insert wins, matching Insert; verify-mode image copies are
  // dropped). The fleet scheduler uses this to merge worker session
  // verdicts into the loaded cache before Save.
  void AbsorbFrom(const VerdictCache& other);

  // Visits every entry under the lock (order unspecified; verify-mode
  // image copies are not exposed). The fleet scheduler uses this to ship
  // the warm set to stateless remote workers at bootstrap.
  void ForEach(const std::function<void(const ImageDigest&,
                                        const VerdictCacheEntry&)>& fn) const;

  size_t size() const;
  bool verify() const { return verify_; }

  // Monotonic counters, stable after the campaign's threads join.
  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t collisions() const;
  uint64_t loaded() const { return loaded_; }

  // -- Persistence ---------------------------------------------------------
  //
  // File format (little-endian, version 1):
  //   magic u32 "MVC1" | version u32 | trace fingerprint u64 | count u64
  //   then per entry:
  //     digest.lo u64 | digest.hi u64 | status u32 | flags u32 (bit0 =
  //     timed_out) | recovery_wall_us u64 | first_seq u64 |
  //     detail_len u32 | signal_len u32 | detail bytes | signal bytes
  // Strings are capped at kMaxStringBytes on write and rejected beyond it
  // on read (a corrupted length must not allocate gigabytes).

  // Replaces the in-memory contents with the file's entries when the magic,
  // version and fingerprint all match. Missing file: returns true with
  // `*warning` empty (a cold cache is not an error). Stale fingerprint,
  // future version or garbage header: returns false with a warning and the
  // cache left empty. A file truncated or corrupted mid-entry keeps the
  // cleanly parsed prefix (counted in loaded()) and returns true with a
  // warning.
  bool Load(const std::string& path, uint64_t trace_fingerprint,
            std::string* warning);

  // Serialises the current contents (without verify-mode images). Writes
  // to `path` + ".tmp" then renames, so an interrupted run leaves the old
  // cache intact. Returns false with `*error` set on I/O failure.
  bool Save(const std::string& path, uint64_t trace_fingerprint,
            std::string* error) const;

  static constexpr uint32_t kMagic = 0x3143564du;  // "MVC1"
  static constexpr uint32_t kVersion = 1;
  static constexpr size_t kMaxStringBytes = 4096;

 private:
  const bool verify_;
  mutable std::mutex mutex_;
  std::unordered_map<ImageDigest, VerdictCacheEntry, ImageDigestHash> map_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t collisions_ = 0;
  uint64_t loaded_ = 0;
};

}  // namespace mumak

#endif  // MUMAK_SRC_CORE_VERDICT_CACHE_H_
