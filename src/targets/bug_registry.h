// Seeded-bug registry: the ground-truth corpus for the coverage experiments
// (§6.2). Each entry is a distinct code site in one of the targets, guarded
// by a TargetOptions bug flag, whose class matches the paper's taxonomy
// (§2). The corpus mirrors the Witcher bug list the paper evaluates
// against: 43 correctness bugs and 101 performance bugs across the PMDK
// data stores, the Recipe-style indexes, and Redis — including the 17
// Level-Hashing bugs whose detection depends on the recovery-procedure
// ablation.

#ifndef MUMAK_SRC_TARGETS_BUG_REGISTRY_H_
#define MUMAK_SRC_TARGETS_BUG_REGISTRY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mumak {

// Bug taxonomy of §2.
enum class BugClass {
  // Correctness bugs.
  kDurability,   // store never made durable (missing flush/fence)
  kAtomicity,    // multi-store update not failure-atomic
  kOrdering,     // stores persisted in an order recovery cannot handle
  // Performance bugs.
  kRedundantFlush,
  kRedundantFence,
  kTransientData,  // PM used for data that should be volatile
};

constexpr bool IsCorrectnessClass(BugClass c) {
  return c == BugClass::kDurability || c == BugClass::kAtomicity ||
         c == BugClass::kOrdering;
}

std::string_view BugClassName(BugClass c);

struct SeededBug {
  std::string id;      // e.g. "btree.split_unlogged"
  std::string target;  // target registry name
  BugClass bug_class;
  std::string description;
  // True when the bug is, by design, outside Mumak's guarantees: an
  // ordering violation only exposed by persist orderings that do not
  // respect program order (§4.1), or a never-flushed store that Mumak can
  // only report as a transient-data warning (§4.2). These account for the
  // ~10% the paper reports as missed.
  bool beyond_program_order = false;
};

// The full corpus.
const std::vector<SeededBug>& AllSeededBugs();

// Recovery-hazard bugs: deliberately broken *recovery* paths (a torn
// pointer dereference that segfaults; a corrupted-cycle walk that never
// terminates). Deliberately NOT part of AllSeededBugs(): the coverage
// corpus is exercised in-process by tests and by default campaigns, while
// these kill or hang any process that runs them — they require the
// recovery-oracle sandbox (--sandbox forkserver).
const std::vector<SeededBug>& RecoveryHazardBugs();

// Corpus filtered by target.
std::vector<SeededBug> SeededBugsForTarget(std::string_view target);

// True for bugs belonging to the §6.2 coverage corpus (the Witcher-list
// analogue). The Montage and libart entries model the paper's §6.4 *new*
// bugs and are evaluated separately.
bool InCoverageCorpus(const SeededBug& bug);

// Counts by correctness/performance over the coverage corpus, mirroring
// the paper's 43/101 split.
struct CorpusCounts {
  uint64_t correctness = 0;
  uint64_t performance = 0;
};
CorpusCounts CountCorpus();

}  // namespace mumak

#endif  // MUMAK_SRC_TARGETS_BUG_REGISTRY_H_
