// FlatTable: an open-addressing hash table from uint64_t keys to values,
// for the lookups made at every PM event (the persistency model's cache
// and WPQ overlays, the per-thread frame caches, the call-path trie, the
// failure-point memo, trace analysis's per-line state). Entries live in one
// dense vector; a power-of-two index of entry positions is probed
// linearly, and an erase shifts the rest of its probe run back instead of
// leaving a tombstone, so lookups do not slow down with churn. An erase
// moves the last entry into the hole, so the entries stay dense. Clear()
// costs the entries, not the index, and a table allocates nothing until
// its first insert.
//
// A pointer returned by Find or TryEmplace is valid until the next insert
// or erase on the same table: never hold one across either. Iteration
// visits the entries in insertion order as perturbed by erases; no output
// may depend on it.

#ifndef MUMAK_SRC_INSTRUMENT_FLAT_TABLE_H_
#define MUMAK_SRC_INSTRUMENT_FLAT_TABLE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mumak {

template <typename V>
class FlatTable {
 public:
  struct Entry {
    uint64_t key;
    V value;
  };

  size_t size() const { return entries_.size(); }
  // Index slots; 0 until the first insert.
  size_t capacity() const { return index_.size(); }

  V* Find(uint64_t key) {
    const size_t slot = FindSlot(key);
    return slot == kAbsent ? nullptr : &entries_[index_[slot] - 1].value;
  }
  const V* Find(uint64_t key) const {
    const size_t slot = FindSlot(key);
    return slot == kAbsent ? nullptr : &entries_[index_[slot] - 1].value;
  }
  bool Contains(uint64_t key) const { return FindSlot(key) != kAbsent; }

  // The value under `key`, value-initialized and inserted when absent;
  // `second` is true when it was inserted.
  std::pair<V*, bool> TryEmplace(uint64_t key) {
    if (!index_.empty()) {
      size_t slot = HomeSlot(key);
      for (uint32_t at; (at = index_[slot]) != 0; slot = (slot + 1) & mask_) {
        if (entries_[at - 1].key == key) {
          return {&entries_[at - 1].value, false};
        }
      }
      if ((entries_.size() + 1) * 2 <= index_.size()) {
        return {Append(slot, key), true};
      }
    }
    Grow();
    size_t slot = HomeSlot(key);
    while (index_[slot] != 0) {
      slot = (slot + 1) & mask_;
    }
    return {Append(slot, key), true};
  }
  V& operator[](uint64_t key) { return *TryEmplace(key).first; }

  // Removes `key`; false when absent.
  bool Erase(uint64_t key) {
    size_t hole = FindSlot(key);
    if (hole == kAbsent) {
      return false;
    }
    const uint32_t at = index_[hole] - 1;
    const uint32_t last = static_cast<uint32_t>(entries_.size() - 1);
    if (at != last) {
      index_[FindSlot(entries_[last].key)] = at + 1;
      entries_[at] = std::move(entries_[last]);
    }
    entries_.pop_back();
    // Backward shift: a later member of the run moves into the hole unless
    // its home slot lies cyclically in (hole, slot].
    for (size_t slot = (hole + 1) & mask_; index_[slot] != 0;
         slot = (slot + 1) & mask_) {
      const size_t home = HomeSlot(entries_[index_[slot] - 1].key);
      if (((slot - home) & mask_) >= ((slot - hole) & mask_)) {
        index_[hole] = index_[slot];
        hole = slot;
      }
    }
    index_[hole] = 0;
    return true;
  }

  // Removes every entry, keeping the storage. O(entries): each entry's
  // walk from its home slot zeroes the run up to the first empty slot, and
  // the first walk into any run covers it to its end.
  void Clear() {
    for (const Entry& entry : entries_) {
      for (size_t slot = HomeSlot(entry.key); index_[slot] != 0;
           slot = (slot + 1) & mask_) {
        index_[slot] = 0;
      }
    }
    entries_.clear();
  }

  Entry* begin() { return entries_.data(); }
  Entry* end() { return entries_.data() + entries_.size(); }
  const Entry* begin() const { return entries_.data(); }
  const Entry* end() const { return entries_.data() + entries_.size(); }

  // The index slot `key`'s probe starts from (Fibonacci hashing, so
  // consecutive keys such as cache-line indices spread over the index).
  // Only meaningful once capacity() > 0.
  size_t HomeSlot(uint64_t key) const {
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ull) >> shift_);
  }

 private:
  static constexpr size_t kAbsent = ~size_t{0};
  static constexpr size_t kMinSlots = 16;

  size_t FindSlot(uint64_t key) const {
    if (index_.empty()) {
      return kAbsent;
    }
    for (size_t slot = HomeSlot(key);; slot = (slot + 1) & mask_) {
      const uint32_t at = index_[slot];
      if (at == 0) {
        return kAbsent;
      }
      if (entries_[at - 1].key == key) {
        return slot;
      }
    }
  }

  V* Append(size_t slot, uint64_t key) {
    entries_.push_back({key, V{}});
    index_[slot] = static_cast<uint32_t>(entries_.size());
    return &entries_.back().value;
  }

  // Doubles the index (at most half full) and re-slots every entry.
  void Grow() {
    const size_t slots = index_.empty() ? kMinSlots : index_.size() * 2;
    index_.assign(slots, 0);
    mask_ = slots - 1;
    shift_ = 64 - std::countr_zero(slots);
    for (size_t i = 0; i < entries_.size(); ++i) {
      size_t slot = HomeSlot(entries_[i].key);
      while (index_[slot] != 0) {
        slot = (slot + 1) & mask_;
      }
      index_[slot] = static_cast<uint32_t>(i + 1);
    }
  }

  std::vector<Entry> entries_;
  std::vector<uint32_t> index_;  // entry position + 1; 0 is an empty slot
  size_t mask_ = 0;
  int shift_ = 63;  // 64 - log2(slots) once allocated; < 64 keeps it defined
};

}  // namespace mumak

#endif  // MUMAK_SRC_INSTRUMENT_FLAT_TABLE_H_
