// Simulation of the x86 relaxed, buffered persistency model described in §2
// of the paper. This is the substitute for a physical Optane DCPMM: stores
// land in a volatile cache-line overlay, flushes move line snapshots into a
// write pending queue (WPQ), and fences commit the WPQ into the durable
// medium. Crash images can then be generated with different survival
// semantics (graceful / power failure / selected-lines).
// The durable medium is a PoolMedium, owned or a caller's;
// GracefulImageInto() writes the graceful crash image into another medium
// at the cost of both footprints and the pending lines.

#ifndef MUMAK_SRC_PMEM_PERSISTENCY_MODEL_H_
#define MUMAK_SRC_PMEM_PERSISTENCY_MODEL_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/instrument/flat_table.h"
#include "src/pmem/pool_medium.h"

namespace mumak {

inline constexpr size_t kCacheLineSize = 64;
// PM guarantees failure atomicity only for aligned 8-byte groups (§2).
inline constexpr size_t kAtomicGranule = 8;

inline constexpr uint64_t LineIndex(uint64_t offset) {
  return offset / kCacheLineSize;
}
inline constexpr uint64_t LineBase(uint64_t offset) {
  return offset & ~(kCacheLineSize - 1);
}

// Aggregate persistency statistics, used by resource accounting and tests.
struct ModelStats {
  uint64_t stores = 0;
  uint64_t nt_stores = 0;
  uint64_t clflushes = 0;
  uint64_t optimized_flushes = 0;  // clflushopt + clwb
  uint64_t fences = 0;
  uint64_t rmws = 0;
  uint64_t committed_lines = 0;  // lines made durable by fences/clflush
};

class PersistencyModel {
 public:
  explicit PersistencyModel(size_t pool_size);

  // Constructs a model whose durable medium is a post-crash image; the
  // volatile state (cache, WPQ) starts empty, exactly like a machine that
  // just rebooted.
  static PersistencyModel FromDurableImage(std::vector<uint8_t> image);

  // Same, over a caller-owned medium as it stands (zero for a fresh run, a
  // crash image for recovery). The medium must outlive the model.
  static PersistencyModel FromMedium(PoolMedium* medium);

  size_t pool_size() const { return durable_.size(); }

  // -- Mutators, mirroring the instruction classes -------------------------

  // Regular store: becomes visible (cache) but not durable.
  void Store(uint64_t offset, std::span<const uint8_t> data);

  // Non-temporal store: bypasses the cache, lands in the WPQ, still requires
  // a fence to be guaranteed durable.
  void NtStore(uint64_t offset, std::span<const uint8_t> data);

  // clflush: writes the line back synchronously (durable immediately) and
  // invalidates it. Ordered with respect to other stores.
  void Clflush(uint64_t offset);

  // clflushopt: snapshots the line into the WPQ (durable at next fence) and
  // invalidates it.
  void ClflushOpt(uint64_t offset);

  // clwb: snapshots the line into the WPQ without invalidating it.
  void Clwb(uint64_t offset);

  // sfence / mfence / RMW: drain the WPQ into the durable medium. The model
  // does not distinguish load ordering, so all three commit identically.
  void Fence();

  // Atomic read-modify-write on an aligned u64; has fence semantics (§2).
  uint64_t RmwAdd(uint64_t offset, uint64_t delta);
  bool RmwCas(uint64_t offset, uint64_t expected, uint64_t desired);

  // -- Reads ----------------------------------------------------------------

  // Latest visible value: cache overlay if the line is resident, otherwise
  // WPQ, otherwise the durable medium.
  void Load(uint64_t offset, std::span<uint8_t> out) const;
  uint64_t LoadU64(uint64_t offset) const;

  // -- Crash images ----------------------------------------------------------

  // "Graceful crash": every pending store is persisted in program order
  // before the process is killed (§4.1 — Mumak's deterministic fault
  // injection). The image therefore reflects the full program-order prefix.
  std::vector<uint8_t> GracefulImage() const;
  // The same image written into `out`: the durable medium copied in, then
  // the WPQ and the cache overlaid. O(both footprints + pending lines); the
  // model is left as it was, so the execution can carry on.
  void GracefulImageInto(PoolMedium* out) const;

  // "Pulled power cord": only the durable medium survives.
  std::vector<uint8_t> PowerFailImage() const;

  // Power failure where a chosen subset of dirty/WPQ lines happened to be
  // evicted or drained before the crash. Used by the Yat-like baseline to
  // enumerate permissible persistence orderings.
  std::vector<uint8_t> PowerFailImageWithLines(
      std::span<const uint64_t> surviving_lines) const;

  // Lines whose visible content differs from the durable medium.
  std::vector<uint64_t> DirtyLines() const;

  // -- Introspection ----------------------------------------------------------

  bool IsLineDirty(uint64_t line) const;
  bool IsLineInWpq(uint64_t line) const;
  size_t dirty_line_count() const { return cache_.size(); }
  size_t wpq_line_count() const { return wpq_.size(); }
  const ModelStats& stats() const { return stats_; }

  // Volatile-state footprint in bytes, for Table 2 resource accounting.
  // A model of a hash-node overlay (line + node bookkeeping per resident
  // line), kept for comparability with earlier Table 2 runs; it is not
  // the tables' allocated bytes.
  size_t VolatileFootprintBytes() const;
  // Index slots the cache and WPQ tables have allocated: 0 until the
  // first store, flush or NT store.
  size_t table_capacity() const {
    return cache_.capacity() + wpq_.capacity();
  }

  std::span<const uint8_t> durable_bytes() const { return durable_; }

 private:
  struct CacheLine {
    std::array<uint8_t, kCacheLineSize> data{};
  };

  // Ensures `line` is resident in the cache overlay, loading its current
  // visible content first.
  CacheLine& Touch(uint64_t line);

  // Copies the line's current visible content into `out`.
  void SnapshotLine(uint64_t line, std::array<uint8_t, kCacheLineSize>* out)
      const;
  // The same, skipping the cache overlay: the WPQ copy, else the durable
  // one.
  void SnapshotBelowCache(uint64_t line,
                          std::array<uint8_t, kCacheLineSize>* out) const;

  void CommitLineToDurable(uint64_t line,
                           const std::array<uint8_t, kCacheLineSize>& data);

  // Durable medium: owned or a caller's (FromMedium); `durable_` views its
  // bytes. The unique_ptr keeps `medium_` valid across moves.
  std::unique_ptr<PoolMedium> owned_;
  PoolMedium* medium_ = nullptr;
  std::span<uint8_t> durable_;
  // Volatile CPU cache overlay: dirty lines only, keyed by line index.
  // Hashed rather than ordered — the store/flush hot path only ever probes
  // single lines, and every whole-table walk (fence commit, image overlay)
  // touches disjoint lines, so iteration order cannot change the result.
  // The one consumer that needs determinism, DirtyLines(), sorts its
  // output instead.
  FlatTable<CacheLine> cache_;
  // Write pending queue: line snapshots awaiting a fence.
  FlatTable<CacheLine> wpq_;
  ModelStats stats_;
};

}  // namespace mumak

#endif  // MUMAK_SRC_PMEM_PERSISTENCY_MODEL_H_
