// Bug reports. Mumak's ergonomics goals (§6.5, Table 3): complete stack
// traces for every finding, unique bugs only, warnings separable from bugs.

#ifndef MUMAK_SRC_CORE_REPORT_H_
#define MUMAK_SRC_CORE_REPORT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/targets/bug_registry.h"

namespace mumak {

enum class FindingSource {
  kFaultInjection,  // recovery oracle flagged a crash state (§4.1)
  kTraceAnalysis,   // pattern of PM misuse in the access trace (§4.2)
};

enum class FindingKind {
  // Fault injection.
  kRecoveryUnrecoverable,
  kRecoveryCrash,
  kRecoveryTimeout,      // recovery hung past the sandbox deadline
  // Trace analysis patterns (§4.2).
  kUnflushedStore,       // durability bug (address flushed elsewhere)
  kTransientData,        // warning: PM used for never-persisted data
  kDirtyOverwrite,       // store overwritten before being persisted
  kRedundantFlush,       // flush of a clean/unwritten line
  kMultiStoreFlush,      // warning: one flush covers several stores
  kRedundantFence,       // fence with nothing pending
  kMultiFlushFence,      // warning: fence orders >1 buffered flush/NT store
};

std::string_view FindingKindName(FindingKind kind);

// True when the finding is reported as a warning rather than a definite bug
// (§4.2: patterns whose verdict depends on intent or memory layout).
bool IsWarning(FindingKind kind);

// Maps a finding onto the taxonomy of §2 (for coverage accounting).
BugClass FindingBugClass(FindingKind kind);

struct Finding {
  FindingSource source = FindingSource::kTraceAnalysis;
  FindingKind kind = FindingKind::kUnflushedStore;
  // Stack trace (fault injection) or resolved instruction site (trace
  // analysis) — the "complete bug path" column of Table 3.
  std::string location;
  std::string detail;
  uint64_t pm_offset = 0;  // offending PM address, when applicable
  uint64_t seq = 0;        // instruction counter of the offending access
  // Sandbox evidence (fault-injection findings under --sandbox only;
  // defaults mean "not applicable" and are elided from JSON output).
  std::string signal_name;       // e.g. "SIGSEGV" when recovery died on one
  bool timed_out = false;        // parent killed recovery at the deadline
  uint64_t recovery_wall_us = 0; // oracle wall time for this crash image
  // Image-dedup provenance: set when the verdict was attributed from the
  // verdict cache instead of a fresh oracle run, naming the crash image's
  // content digest and the failure point whose check produced the cached
  // verdict (possibly in a previous run, via --verdict-cache). Empty — and
  // elided from all output — for verdicts the oracle produced directly, so
  // dedup-off reports are byte-identical.
  std::string dedup_of;
};

class Report {
 public:
  void Add(Finding finding);

  const std::vector<Finding>& findings() const { return findings_; }

  uint64_t BugCount() const;
  uint64_t WarningCount() const;
  std::vector<Finding> Bugs() const;
  std::vector<Finding> Warnings() const;

  void Merge(const Report& other);

  // Human-readable report; set `include_warnings` to false to silence
  // warnings (Table 3: warnings can be disabled).
  std::string Render(bool include_warnings = true) const;

  // Machine-readable report for CI pipelines (§7's integration story):
  // a JSON object with bug/warning counts and one entry per finding.
  std::string RenderJson(bool include_warnings = true) const;

 private:
  std::vector<Finding> findings_;
};

}  // namespace mumak

#endif  // MUMAK_SRC_CORE_REPORT_H_
