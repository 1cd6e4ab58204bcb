// Worker-side body of a sandboxed oracle invocation, plus the pure
// classification helpers the parent uses to turn a wait-status into a
// verdict. Kept separate from the process orchestration so the
// classification table is unit-testable without forking.

#ifndef MUMAK_SRC_SANDBOX_CHILD_H_
#define MUMAK_SRC_SANDBOX_CHILD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/observability/span_tracer.h"
#include "src/pmem/pool_medium.h"
#include "src/sandbox/options.h"

namespace mumak {

// Compile-time detection of the sanitizers whose runtime owns the
// worker's faults (AddressSanitizer, ThreadSanitizer): RLIMIT_AS is
// incompatible with their shadow mappings, and they turn a wild-pointer
// fault into an exit status instead of signal death (classification must
// treat both as kCrashed).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MUMAK_SANDBOX_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MUMAK_SANDBOX_SANITIZED 1
#endif
#endif

// Human-readable signal name ("SIGSEGV", ...; "signal <n>" for others).
std::string SignalName(int sig);

// Applies setrlimit caps inside a freshly forked child. `cpu_limit_s` 0 =
// leave RLIMIT_CPU alone. RLIMIT_AS is skipped under ASan and TSan.
void ApplyChildRlimits(uint64_t address_space_bytes, uint32_t cpu_limit_s);

// Runs the recovery oracle on `image` *in place* in this process and
// returns the outcome (plus wall time, and the image's Digest() taken
// before recovery when `compute_digest` is set); signal and timed_out stay
// unset, they are the parent's to fill in on an abnormal death. Never
// throws. Recovery's committed stores land in `image` and join its
// footprint, so the worker's next Clear() drops them.
//
// When `spans` is non-null the sub-phases (digest walk, the oracle run
// itself) are timed into it (name, start_us relative to this call's entry,
// duration_us) — the sandbox worker streams them back as span frames so
// the parent can graft the worker's work into the campaign's Chrome trace.
SandboxVerdict RunOracleInSandboxProcess(const SandboxTargetFactory& factory,
                                         PoolMedium* image,
                                         bool compute_digest,
                                         std::vector<SpanEvent>* spans);

// Parent-side classification of a child's wait status when no complete
// verdict message arrived. kCrashed for fatal signals (signal recorded)
// and for nonzero exits without a verdict (how an ASan-instrumented child
// reports a wild-pointer fault); kTimeout for SIGXCPU (CPU-cap backstop).
struct TerminationClass {
  RecoveryStatus status = RecoveryStatus::kCrashed;
  int signal = 0;
  bool timed_out = false;
  std::string detail;
};
TerminationClass ClassifyWaitStatus(int wstatus);

}  // namespace mumak

#endif  // MUMAK_SRC_SANDBOX_CHILD_H_
