// The durable medium of an emulated pool: `size` contiguous bytes that
// start all-zero, plus the footprint, the set of 4 KiB pages written since.
// Clear, copy and digest walk the footprint, so a crash image costs the
// pages it wrote, not the pool. The bytes live in a private anonymous
// mapping: untouched pages cost no memory, and a fork gets copy-on-write.
// Every write must be marked (Write() does; writers through mutable_data()
// call MarkWritten()), or it survives Clear() and breaks the digest.

#ifndef MUMAK_SRC_PMEM_POOL_MEDIUM_H_
#define MUMAK_SRC_PMEM_POOL_MEDIUM_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "src/pmem/image_digest.h"

namespace mumak {

inline constexpr size_t kMediumPageSize = 4096;

// Releases a PoolMedium's mapping.
struct MediumUnmap {
  size_t size = 0;
  void operator()(uint8_t* data) const;
};

class PoolMedium {
 public:
  PoolMedium() = default;
  // All-zero. Throws std::bad_alloc when the mapping fails.
  explicit PoolMedium(size_t size);
  // A copy of `bytes`, made by one scan for non-zero pages. For baselines,
  // tests and file loads; the injection path never scans a pool.
  static PoolMedium FromBytes(std::span<const uint8_t> bytes);

  PoolMedium(PoolMedium&&) noexcept = default;
  PoolMedium& operator=(PoolMedium&&) noexcept = default;
  PoolMedium(const PoolMedium& other) { CopyFrom(other); }
  PoolMedium& operator=(const PoolMedium& other) {
    CopyFrom(other);
    return *this;
  }

  size_t size() const { return size_; }
  const uint8_t* data() const { return data_.get(); }
  uint8_t* mutable_data() { return data_.get(); }
  // The footprint, in first-write order.
  const std::vector<uint32_t>& pages() const { return pages_; }
  // Bytes of `page` inside the medium (the last page may be partial).
  std::span<uint8_t> Page(uint64_t page) const;

  void Write(uint64_t offset, const void* bytes, size_t len) {
    std::memcpy(data_.get() + offset, bytes, len);
    MarkWritten(offset, len);
  }
  // Adds the pages under [offset, offset + len) to the footprint.
  void MarkWritten(uint64_t offset, size_t len) {
    const uint64_t last = (offset + len - 1) / kMediumPageSize;
    for (uint64_t page = offset / kMediumPageSize; len > 0 && page <= last;
         ++page) {
      uint64_t& word = written_[page / 64];
      if ((word & Bit(page)) == 0) {
        word |= Bit(page);
        pages_.push_back(static_cast<uint32_t>(page));
      }
    }
  }

  // Re-zeroes the footprint. O(footprint).
  void Clear();
  // Makes this medium byte-equal to `other`, in place when the sizes match.
  // O(both footprints).
  void CopyFrom(const PoolMedium& other);
  // Equals ComputeContentDigest(data(), size()): every line outside the
  // footprint is zero and contributes nothing. O(footprint).
  ImageDigest Digest() const;

  // Byte equality (for tests: it reads the whole pool).
  friend bool operator==(const PoolMedium& a, std::span<const uint8_t> b);
  friend bool operator==(const PoolMedium& a, const PoolMedium& b) {
    return a == std::span<const uint8_t>(b.data(), b.size());
  }

 private:
  static uint64_t Bit(uint64_t page) { return uint64_t{1} << (page % 64); }

  std::unique_ptr<uint8_t, MediumUnmap> data_;
  size_t size_ = 0;
  std::vector<uint64_t> written_;  // footprint bitmap, one bit per page
  std::vector<uint32_t> pages_;    // footprint list
};

}  // namespace mumak

#endif  // MUMAK_SRC_PMEM_POOL_MEDIUM_H_
