// Emulated persistent memory pool: the DAX-mapped region the paper's target
// applications operate on. Every access goes through this API, which (a)
// forwards to the persistency model and (b) publishes a PmEvent to the
// EventHub — the substitute for Pin instrumentation.

#ifndef MUMAK_SRC_PMEM_PM_POOL_H_
#define MUMAK_SRC_PMEM_PM_POOL_H_

#include <cstdint>
#include <cstring>
#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/instrument/event_hub.h"
#include "src/instrument/shadow_call_stack.h"
#include "src/instrument/pm_event.h"
#include "src/observability/metrics.h"
#include "src/pmem/persistency_model.h"

namespace mumak {

class PmPool {
 public:
  // Creates a fresh, zeroed pool of `size` bytes.
  explicit PmPool(size_t size)
      : model_(size), hub_(std::make_unique<EventHub>()) {}

  // Opens a pool from a post-crash image (the recovery-side constructor).
  static PmPool FromImage(std::vector<uint8_t> image) {
    return PmPool(PersistencyModel::FromDurableImage(std::move(image)));
  }

  // Opens a pool over a caller-owned medium as it stands (zero for a fresh
  // run, a crash image for recovery), with no copy. It must outlive the pool.
  static PmPool FromMedium(PoolMedium* medium) {
    return PmPool(PersistencyModel::FromMedium(medium));
  }

  PmPool(PmPool&&) = default;
  PmPool& operator=(PmPool&&) = default;

  size_t size() const { return model_.pool_size(); }
  // The hub lives behind a unique_ptr so its address is stable across pool
  // moves (sinks hold raw pointers to it).
  EventHub& hub() { return *hub_; }
  PersistencyModel& model() { return model_; }
  const PersistencyModel& model() const { return model_; }

  // When enabled, PM loads are also published (the Mumak pipeline does not
  // need them, but the XFDetector-like baseline instruments post-failure
  // reads).
  void set_trace_loads(bool on) { trace_loads_ = on; }

  // Optional per-EventKind accounting (src/observability). Null by
  // default: the uninstrumented hot path pays exactly one branch per
  // published event. Does not take ownership.
  void set_event_counters(EventCounters* counters) { counters_ = counters; }

  // -- Stores ------------------------------------------------------------

  void Write(uint64_t offset, const void* data, size_t size) {
    model_.Store(offset, AsBytes(data, size));
    if (!hub_->enabled()) {
      return;
    }
    const void* site = __builtin_return_address(0);
    const uint8_t* bytes = static_cast<const uint8_t*>(data);
    if (size <= 16) {
      Publish(EventKind::kStore, offset, static_cast<uint32_t>(size), site,
              bytes);
      return;
    }
    // A struct assignment lowers to a sequence of (16-byte vector) store
    // instructions at consecutive code addresses; the event stream reflects
    // that, which is what makes the store-level failure point space an
    // order of magnitude larger than the persistency-instruction space
    // (Figure 3).
    size_t at = 0;
    while (at < size) {
      const size_t chunk = std::min<size_t>(16, size - at);
      Publish(EventKind::kStore, offset + at, static_cast<uint32_t>(chunk),
              static_cast<const char*>(site) + (at / 16) * 4, bytes + at);
      at += chunk;
    }
  }

  void WriteNt(uint64_t offset, const void* data, size_t size) {
    model_.NtStore(offset, AsBytes(data, size));
    Publish(EventKind::kNtStore, offset, size, __builtin_return_address(0),
            static_cast<const uint8_t*>(data));
  }

  void WriteU64(uint64_t offset, uint64_t value) {
    Write(offset, &value, sizeof(value));
  }

  void WriteU32(uint64_t offset, uint32_t value) {
    Write(offset, &value, sizeof(value));
  }

  template <typename T>
  void WriteObject(uint64_t offset, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    Write(offset, &value, sizeof(T));
  }

  // Zeroes a range with regular stores.
  void Memset(uint64_t offset, uint8_t value, size_t size);

  // -- Loads -------------------------------------------------------------

  void Read(uint64_t offset, void* out, size_t size) const {
    model_.Load(offset,
                std::span<uint8_t>(static_cast<uint8_t*>(out), size));
    if (trace_loads_) {
      const_cast<PmPool*>(this)->Publish(EventKind::kLoad, offset, size, __builtin_return_address(0));
    }
  }

  uint64_t ReadU64(uint64_t offset) const {
    uint64_t value = 0;
    Read(offset, &value, sizeof(value));
    return value;
  }

  uint32_t ReadU32(uint64_t offset) const {
    uint32_t value = 0;
    Read(offset, &value, sizeof(value));
    return value;
  }

  template <typename T>
  T ReadObject(uint64_t offset) const {
    static_assert(std::is_trivially_copyable_v<T>);
    T value{};
    Read(offset, &value, sizeof(T));
    return value;
  }

  // -- Persistency instructions -------------------------------------------

  void Clflush(uint64_t offset) {
    model_.Clflush(offset);
    Publish(EventKind::kClflush, LineBase(offset), kCacheLineSize,
            __builtin_return_address(0));
  }

  void ClflushOpt(uint64_t offset) {
    model_.ClflushOpt(offset);
    Publish(EventKind::kClflushOpt, LineBase(offset), kCacheLineSize,
            __builtin_return_address(0));
  }

  void Clwb(uint64_t offset) {
    model_.Clwb(offset);
    Publish(EventKind::kClwb, LineBase(offset), kCacheLineSize,
            __builtin_return_address(0));
  }

  void ClwbFrom(uint64_t offset, const void* site) {
    model_.Clwb(offset);
    Publish(EventKind::kClwb, LineBase(offset), kCacheLineSize, site);
  }

  void Sfence() {
    model_.Fence();
    Publish(EventKind::kSfence, 0, 0, __builtin_return_address(0));
  }

  void SfenceFrom(const void* site) {
    model_.Fence();
    Publish(EventKind::kSfence, 0, 0, site);
  }

  void Mfence() {
    model_.Fence();
    Publish(EventKind::kMfence, 0, 0, __builtin_return_address(0));
  }

  uint64_t RmwAdd(uint64_t offset, uint64_t delta) {
    uint64_t previous = model_.RmwAdd(offset, delta);
    // The payload is the post-RMW value: replaying it as a plain store
    // reproduces the RMW's effect on the crash image.
    const uint64_t updated = previous + delta;
    Publish(EventKind::kRmw, offset, sizeof(uint64_t),
            __builtin_return_address(0),
            reinterpret_cast<const uint8_t*>(&updated));
    return previous;
  }

  bool RmwCas(uint64_t offset, uint64_t expected, uint64_t desired) {
    bool swapped = model_.RmwCas(offset, expected, desired);
    // Post-value payload: `desired` on a successful swap, the unchanged
    // current value otherwise (a no-op store on replay).
    uint64_t post = 0;
    model_.Load(offset, std::span<uint8_t>(
                            reinterpret_cast<uint8_t*>(&post), sizeof(post)));
    Publish(EventKind::kRmw, offset, sizeof(uint64_t),
            __builtin_return_address(0),
            reinterpret_cast<const uint8_t*>(&post));
    return swapped;
  }

  // Flushes every cache line in [offset, offset+size) with clwb and issues
  // an sfence — the libpmem `pmem_persist` idiom. The emitted events carry
  // the caller's code address so different persist sites stay distinct
  // failure points.
  // Defined out of line and never inlined so that
  // __builtin_return_address(0) inside them is the actual call site.
  __attribute__((noinline)) void PersistRange(uint64_t offset, size_t size);

  // Flushes the range without fencing (`pmem_flush` idiom).
  __attribute__((noinline)) void FlushRange(uint64_t offset, size_t size);

  void PersistRangeFrom(uint64_t offset, size_t size, const void* site);
  void FlushRangeFrom(uint64_t offset, size_t size, const void* site);

  // -- Crash images and persistence ---------------------------------------

  std::vector<uint8_t> GracefulImage() const { return model_.GracefulImage(); }
  std::vector<uint8_t> PowerFailImage() const {
    return model_.PowerFailImage();
  }

  bool SaveToFile(const std::string& path) const;
  static bool LoadFromFile(const std::string& path, PmPool* pool);

 private:
  explicit PmPool(PersistencyModel model)
      : model_(std::move(model)), hub_(std::make_unique<EventHub>()) {}

  static std::span<const uint8_t> AsBytes(const void* data, size_t size) {
    return {static_cast<const uint8_t*>(data), size};
  }

  void Publish(EventKind kind, uint64_t offset, uint32_t size,
               const void* site, const uint8_t* payload = nullptr) {
    if (!hub_->enabled()) {
      return;
    }
    if (counters_ != nullptr) {
      counters_->Bump(kind);
    }
    PmEvent ev;
    ev.kind = kind;
    ev.offset = offset;
    ev.size = size;
    ev.site = FrameRegistry::Global().InternAddress(site);
    ev.seq = hub_->next_seq();
    ev.payload = payload;  // borrowed; sinks copy or drop it (see PmEvent)
    hub_->Publish(ev);
  }

  PersistencyModel model_;
  std::unique_ptr<EventHub> hub_;
  bool trace_loads_ = false;
  EventCounters* counters_ = nullptr;
};

}  // namespace mumak

#endif  // MUMAK_SRC_PMEM_PM_POOL_H_
