// A minimal PM "append log with a checksum" target, built to magnify the
// redundant-persistence extreme that real PM code approaches wherever it
// over-flushes (the "performance bug" classes of Table 3):
//  - Execute persists record[count] (store+clwb+sfence), publishes it with
//    an atomic 16-byte header write {count, checksum}, then performs
//    kRedundantRounds re-store+clwb+sfence rounds on the same bytes.
//  - Recover re-derives the checksum over the counted records with several
//    full passes, so the oracle has real work to skip.
// A seeded omission (op kBugOp updates the count but not the checksum)
// gives the campaign genuine inconsistency windows to report.
//
// Every redundant round mints a failure point — there was a store since
// the previous one — but its graceful crash image is byte-identical to
// its predecessor's (the re-store writes back the same payload), so
// content-addressed dedup (bench_dedup) skips the oracle on the tail of
// each operation.

#ifndef MUMAK_BENCH_FLUSH_HEAVY_TARGET_H_
#define MUMAK_BENCH_FLUSH_HEAVY_TARGET_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/pmdk/obj_pool.h"  // RecoveryFailure
#include "src/targets/target.h"

namespace mumak {

class FlushHeavyTarget : public Target {
 public:
  static constexpr uint64_t kCapacity = 2048;      // record slots
  static constexpr uint64_t kHeaderBytes = 64;     // {count, checksum} line
  static constexpr int kRedundantRounds = 8;       // dup failure points/op
  static constexpr int kRecoveryPasses = 6;        // oracle work multiplier
  static constexpr uint64_t kBugOp = 17;           // checksum not updated

  std::string_view name() const override { return "flush_heavy"; }

  uint64_t DefaultPoolSize() const override {
    return kHeaderBytes + kCapacity * sizeof(uint64_t);
  }

  void Setup(PmPool& pool) override {
    const uint64_t header[2] = {0, 0};
    pool.Write(0, header, sizeof(header));
    pool.Clwb(0);
    pool.Sfence();
  }

  void Execute(PmPool& pool, const Op& op) override {
    (void)op;
    if (count_ >= kCapacity) {
      return;
    }
    // Unique failure points are identified by flush/fence *site* (shadow
    // call stack + instruction address), and each site is injected once.
    // A loop reusing one clwb site would collapse to a single failure
    // point no matter the operation count, so every flush here carries a
    // distinct synthetic site — modelling a large application where each
    // of these persists happens at its own source location.
    const auto site = [this](uint64_t slot) {
      return reinterpret_cast<const void*>(
          uintptr_t{0x1000000} + executed_ * 16 + slot);
    };
    const uint64_t value = Mix(count_);
    const uint64_t offset = kHeaderBytes + count_ * sizeof(uint64_t);
    // The novel store: one new record, persisted.
    pool.Write(offset, &value, sizeof(value));
    pool.ClwbFrom(offset, site(0));
    pool.SfenceFrom(site(1));
    // Publish it atomically (a single <=16-byte store event).
    ++count_;
    if (executed_ != kBugOp) {
      checksum_ ^= Mix(value);
    }
    const uint64_t header[2] = {count_, checksum_};
    pool.Write(0, header, sizeof(header));
    pool.ClwbFrom(0, site(2));
    pool.SfenceFrom(site(3));
    // Redundant persistence: same bytes, stored and flushed again. Every
    // round mints a failure point whose graceful image equals the last.
    for (int round = 0; round < kRedundantRounds; ++round) {
      pool.Write(offset, &value, sizeof(value));
      pool.ClwbFrom(offset, site(4 + static_cast<uint64_t>(round)));
      pool.SfenceFrom(site(15));
    }
    ++executed_;
  }

  void Finish(PmPool& pool) override { (void)pool; }

  void Recover(PmPool& pool) override {
    uint64_t header[2] = {0, 0};
    pool.Read(0, header, sizeof(header));
    const uint64_t count = header[0];
    if (count > kCapacity) {
      throw RecoveryFailure("record count exceeds capacity");
    }
    uint64_t checksum = 0;
    for (int pass = 0; pass < kRecoveryPasses; ++pass) {
      checksum = 0;
      for (uint64_t i = 0; i < count; ++i) {
        uint64_t value = 0;
        pool.Read(kHeaderBytes + i * sizeof(uint64_t), &value,
                  sizeof(value));
        checksum ^= Mix(value);
      }
    }
    if (checksum != header[1]) {
      throw RecoveryFailure("checksum mismatch over " +
                            std::to_string(count) + " records");
    }
  }

  uint64_t CodeSizeStatements() const override { return 40; }

 private:
  static uint64_t Mix(uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    return x;
  }

  uint64_t count_ = 0;      // records persisted
  uint64_t executed_ = 0;   // operations seen (for the seeded omission)
  uint64_t checksum_ = 0;
};

}  // namespace mumak

#endif  // MUMAK_BENCH_FLUSH_HEAVY_TARGET_H_
