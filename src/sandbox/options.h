// Sandboxed recovery-oracle subsystem: configuration and verdict types.
//
// Mumak's consistency oracle is the target's own recovery procedure run
// against a crash image (§4.1). Recovery code operating on a corrupted
// image can do anything — dereference a torn pointer (SIGSEGV), chase a
// corrupted next-pointer cycle forever, abort, or exhaust memory — and
// "recovery crashes/hangs on a valid power-failure image" is precisely the
// bug class Mumak must *report*, not die from. The sandbox runs each oracle
// invocation in a disposable worker process so those outcomes become
// first-class findings instead of tool failures.

#ifndef MUMAK_SRC_SANDBOX_OPTIONS_H_
#define MUMAK_SRC_SANDBOX_OPTIONS_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/observability/metrics.h"
#include "src/pmem/image_digest.h"
#include "src/targets/target.h"

namespace mumak {

class SpanTracer;

// Where the recovery oracle runs.
//  - kInProcess: in the analysis process, guarded only by try/catch (the
//    historical behaviour; fastest, but a SIGSEGV or hang in recovery kills
//    or wedges the whole campaign).
//  - kForkServer: one long-lived sandbox worker per injection slot. Each
//    check ships the crash image's footprint (the pages written since zero)
//    over the slot's socket; the worker recovers on its own private copy.
//    A worker serves up to `checks_per_fork` checks before it is retired
//    and re-forked, so a crash or hang is confined to a disposable process.
// The values are the fleet bootstrap's wire encoding.
enum class SandboxPolicy {
  kInProcess = 0,
  kForkServer = 2,
};

struct SandboxOptions {
  SandboxPolicy policy = SandboxPolicy::kInProcess;
  // Hard deadline per oracle invocation, enforced by the parent with
  // poll + SIGKILL. A hang becomes RecoveryStatus::kTimeout.
  uint32_t timeout_ms = 2000;
  // RLIMIT_AS cap for sandbox workers; 0 = no cap. Ignored under ASan
  // (the shadow mapping cannot live inside a small address-space cap).
  uint64_t address_space_bytes = 0;
  // Compute the image's digest in the worker and return it in the verdict
  // (SandboxVerdict::digest), letting the caller verify the footprint
  // handoff delivered the intended bytes. Off by default: the digest walks
  // the image's whole footprint, which is measurable per check.
  bool verify_digest = false;
  // Retire a worker after this many checks. 1 is strict isolation: every
  // check recovers in a freshly forked process, which also gets an
  // RLIMIT_CPU backstop in case the parent dies before the deadline.
  // Larger values amortize the fork (a worker forked from a large analysis
  // process costs ~1 ms on copy-on-write page-table setup alone). 0 =
  // never retire on count (still replaced after any crash/timeout).
  uint32_t checks_per_fork = 256;
  // Optional instrumentation (borrowed): sandbox.forks, sandbox.timeouts,
  // sandbox.killed counters and the recovery.sandbox_us histogram.
  MetricsRegistry* metrics = nullptr;
  // Optional span forwarding (borrowed): sandbox workers time their
  // sub-phases (digest walk, the oracle run) and stream them back as span
  // frames before the verdict; the parent rebases them onto this tracer's
  // timeline under the "recovery-child" category, tagged with the worker's
  // pid and lane. Null disables the child-side timing and the extra frames.
  SpanTracer* tracer = nullptr;
};

// Outcome of one sandboxed oracle invocation, merged from the worker's wire
// message and the parent's termination handling.
struct SandboxVerdict {
  RecoveryStatus status = RecoveryStatus::kOk;
  std::string detail;
  // Terminating signal when the worker died abnormally (0 otherwise) —
  // recorded as bug evidence (SIGSEGV/SIGBUS/... -> kCrashed).
  int signal = 0;
  // True when the parent killed the worker at the deadline (or the worker
  // hit its CPU cap): status is kTimeout.
  bool timed_out = false;
  // Oracle wall time: worker-measured when a verdict message arrived,
  // parent-measured (includes IPC and the wait for the kill) otherwise.
  uint64_t recovery_wall_us = 0;
  // The 128-bit image digest (PoolMedium::Digest) of the crash image as the
  // worker rebuilt it, before recovery; lets the parent verify the handoff
  // delivered the intended bytes. Only populated when
  // SandboxOptions::verify_digest is set.
  ImageDigest digest;
};

// Same signature as core's TargetFactory; redeclared here so the sandbox
// layer does not depend on src/core headers.
using SandboxTargetFactory = std::function<TargetPtr()>;

}  // namespace mumak

#endif  // MUMAK_SRC_SANDBOX_OPTIONS_H_
