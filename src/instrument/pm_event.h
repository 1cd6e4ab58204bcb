// PM access event stream. This is the interface the rest of Mumak consumes;
// in the paper these events are produced by Intel Pin instrumentation, here
// they are produced by the emulated PM pool (src/pmem). Either producer
// yields the same stream, so the analysis pipeline is unchanged.

#ifndef MUMAK_SRC_INSTRUMENT_PM_EVENT_H_
#define MUMAK_SRC_INSTRUMENT_PM_EVENT_H_

#include <cstdint>
#include <string_view>

namespace mumak {

// Kinds of instrumented PM accesses, mirroring the x86 instruction classes
// described in §2 of the paper.
enum class EventKind : uint8_t {
  kStore = 0,     // regular store that lands in the CPU cache
  kNtStore = 1,   // non-temporal store, bypasses the cache (still buffered)
  kClflush = 2,   // flush + invalidate, ordered with respect to stores
  kClflushOpt = 3,  // flush + invalidate, reorderable until a fence
  kClwb = 4,      // write-back without invalidate, reorderable until a fence
  kSfence = 5,    // orders stores and flushes
  kMfence = 6,    // orders loads, stores and flushes
  kRmw = 7,       // atomic read-modify-write; has fence semantics
  kLoad = 8,      // PM load (used by post-failure checkers, not by Mumak)
};

// True for the instruction classes that Mumak treats as persistency
// instructions, i.e. candidate failure points (§4.1).
constexpr bool IsPersistencyInstruction(EventKind kind) {
  switch (kind) {
    case EventKind::kClflush:
    case EventKind::kClflushOpt:
    case EventKind::kClwb:
    case EventKind::kSfence:
    case EventKind::kMfence:
    case EventKind::kRmw:
      return true;
    default:
      return false;
  }
}

// True for instructions with fence semantics (drain buffered flushes).
constexpr bool IsFence(EventKind kind) {
  return kind == EventKind::kSfence || kind == EventKind::kMfence ||
         kind == EventKind::kRmw;
}

// True for instructions that write back a cache line.
constexpr bool IsFlush(EventKind kind) {
  return kind == EventKind::kClflush || kind == EventKind::kClflushOpt ||
         kind == EventKind::kClwb;
}

constexpr bool IsStore(EventKind kind) {
  return kind == EventKind::kStore || kind == EventKind::kNtStore;
}

std::string_view EventKindName(EventKind kind);

// One instrumented PM access. Offsets are relative to the pool base, which
// makes traces position independent (the paper disables ASLR to get the same
// effect for raw addresses).
struct PmEvent {
  EventKind kind = EventKind::kStore;
  uint64_t offset = 0;  // pool-relative byte offset (0 for fences)
  uint32_t size = 0;    // access size in bytes (0 for fences)
  // Interned id of the instruction site that issued the access (the
  // analogue of the instruction address Pin reports; stable within a
  // process, which is what the paper's ASLR-disabling achieves).
  uint32_t site = 0xffffffffu;
  uint64_t seq = 0;     // monotonically increasing instruction counter
  // Bytes written by a store / NT-store / RMW (`size` of them), when the
  // producer exposes them. BORROWED: the pointer aliases the writer's
  // buffer and is valid only for the duration of sink dispatch — sinks
  // that outlive the event must copy (TraceStreamWriter) or drop
  // (TraceCollector) it. Null for fences, flushes and loads, and for
  // events deserialised from payload-less (v1) traces.
  const uint8_t* payload = nullptr;

  bool has_payload() const { return payload != nullptr; }
};

}  // namespace mumak

#endif  // MUMAK_SRC_INSTRUMENT_PM_EVENT_H_
