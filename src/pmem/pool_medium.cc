#include "src/pmem/pool_medium.h"

#include <sys/mman.h>

#include <algorithm>
#include <new>

#include "src/pmem/persistency_model.h"

namespace mumak {
namespace {

constexpr uint8_t kZeroPage[kMediumPageSize] = {};

// Whether `len` <= kMediumPageSize bytes are all zero.
bool IsZero(const uint8_t* data, size_t len) {
  return std::memcmp(data, kZeroPage, len) == 0;
}

}  // namespace

void MediumUnmap::operator()(uint8_t* data) const { munmap(data, size); }

PoolMedium::PoolMedium(size_t size)
    : size_(size),
      written_((size + 64 * kMediumPageSize - 1) / (64 * kMediumPageSize)) {
  if (size == 0) {
    return;
  }
  // Private, never shared: forked workers and sandbox children must get
  // copy-on-write, not write through to this process's image.
  void* mem = mmap(nullptr, size, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) {
    throw std::bad_alloc();
  }
  data_ = {static_cast<uint8_t*>(mem), MediumUnmap{size}};
}

PoolMedium PoolMedium::FromBytes(std::span<const uint8_t> bytes) {
  PoolMedium medium(bytes.size());
  for (size_t at = 0; at < bytes.size(); at += kMediumPageSize) {
    const size_t len = std::min(kMediumPageSize, bytes.size() - at);
    if (!IsZero(bytes.data() + at, len)) {
      medium.Write(at, bytes.data() + at, len);
    }
  }
  return medium;
}

std::span<uint8_t> PoolMedium::Page(uint64_t page) const {
  const size_t at = page * kMediumPageSize;
  return {data_.get() + at, std::min(kMediumPageSize, size_ - at)};
}

void PoolMedium::Clear() {
  for (const uint32_t page : pages_) {
    std::ranges::fill(Page(page), 0);
    written_[page / 64] &= ~Bit(page);
  }
  pages_.clear();
}

void PoolMedium::CopyFrom(const PoolMedium& other) {
  if (this == &other) {
    return;
  }
  if (size_ != other.size_) {
    *this = PoolMedium(other.size_);
  }
  Clear();
  for (const uint32_t page : other.pages_) {
    const std::span<uint8_t> from = other.Page(page);
    Write(page * kMediumPageSize, from.data(), from.size());
  }
}

ImageDigest PoolMedium::Digest() const {
  ImageDigest digest;  // lines outside the footprint are zero
  for (const uint32_t page : pages_) {
    const size_t end = std::min(size_, (page + size_t{1}) * kMediumPageSize);
    for (size_t at = page * kMediumPageSize; at < end; at += kCacheLineSize) {
      DigestToggleLineContent(&digest, data_.get() + at,
                              std::min(kCacheLineSize, end - at),
                              at / kCacheLineSize);
    }
  }
  return digest;
}

bool operator==(const PoolMedium& a, std::span<const uint8_t> b) {
  return a.size_ == b.size() &&
         (a.size_ == 0 || std::memcmp(a.data(), b.data(), a.size_) == 0);
}

}  // namespace mumak
