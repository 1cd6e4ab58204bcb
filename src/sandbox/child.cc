#include "src/sandbox/child.h"

#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <chrono>
#include <new>
#include <vector>

#include "src/pmem/pm_pool.h"

namespace mumak {

std::string SignalName(int sig) {
  switch (sig) {
    case SIGSEGV:
      return "SIGSEGV";
    case SIGBUS:
      return "SIGBUS";
    case SIGABRT:
      return "SIGABRT";
    case SIGFPE:
      return "SIGFPE";
    case SIGILL:
      return "SIGILL";
    case SIGKILL:
      return "SIGKILL";
    case SIGXCPU:
      return "SIGXCPU";
    case SIGTRAP:
      return "SIGTRAP";
    default:
      return "signal " + std::to_string(sig);
  }
}

void ApplyChildRlimits(uint64_t address_space_bytes, uint32_t cpu_limit_s) {
#ifndef MUMAK_SANDBOX_SANITIZED
  if (address_space_bytes > 0) {
    struct rlimit as_limit;
    as_limit.rlim_cur = address_space_bytes;
    as_limit.rlim_max = address_space_bytes;
    setrlimit(RLIMIT_AS, &as_limit);
  }
#else
  (void)address_space_bytes;
#endif
  if (cpu_limit_s > 0) {
    struct rlimit cpu_limit;
    cpu_limit.rlim_cur = cpu_limit_s;
    // Hard limit one second later: SIGXCPU at the soft limit is catchable
    // in principle; SIGKILL at the hard limit is the true backstop.
    cpu_limit.rlim_max = cpu_limit_s + 1;
    setrlimit(RLIMIT_CPU, &cpu_limit);
  }
}

SandboxVerdict RunOracleInSandboxProcess(const SandboxTargetFactory& factory,
                                         PoolMedium* image,
                                         bool compute_digest,
                                         std::vector<SpanEvent>* spans) {
  const auto start = std::chrono::steady_clock::now();
  auto since_start_us = [&start] {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  };
  auto add_span = [spans](const char* name, uint64_t start_us,
                          uint64_t duration_us) {
    if (spans != nullptr) {
      SpanEvent span;
      span.name = name;
      span.start_us = start_us;
      span.duration_us = duration_us;
      spans->push_back(std::move(span));
    }
  };
  SandboxVerdict verdict;
  if (compute_digest) {
    // Before recovery runs: the digest must witness the handed-off bytes,
    // not whatever recovery rewrote them into.
    verdict.digest = image->Digest();
    add_span("image_digest", 0, since_start_us());
  }
  const uint64_t oracle_start_us = since_start_us();
  RecoveryResult result;
  try {
    PmPool pool = PmPool::FromMedium(image);
    TargetPtr fresh = factory();
    // RunRecoveryOracle maps RecoveryFailure -> kUnrecoverable and other
    // std::exceptions -> kCrashed, exactly as the in-process oracle does.
    result = RunRecoveryOracle(*fresh, pool);
  } catch (const std::bad_alloc&) {
    result.status = RecoveryStatus::kCrashed;
    result.detail = "recovery exhausted the sandbox address-space cap";
  } catch (const std::exception& e) {
    result.status = RecoveryStatus::kCrashed;
    result.detail = std::string("recovery setup crashed: ") + e.what();
  } catch (...) {
    result.status = RecoveryStatus::kCrashed;
    result.detail = "recovery threw a non-standard exception";
  }
  verdict.status = result.status;
  verdict.detail = std::move(result.detail);
  verdict.recovery_wall_us = since_start_us();
  add_span("recovery_oracle", oracle_start_us,
           verdict.recovery_wall_us - oracle_start_us);
  return verdict;
}

TerminationClass ClassifyWaitStatus(int wstatus) {
  TerminationClass out;
  if (WIFSIGNALED(wstatus)) {
    const int sig = WTERMSIG(wstatus);
    out.signal = sig;
    if (sig == SIGXCPU) {
      out.status = RecoveryStatus::kTimeout;
      out.timed_out = true;
      out.detail = "recovery exceeded its CPU limit (SIGXCPU)";
      return out;
    }
    out.status = RecoveryStatus::kCrashed;
    out.detail = "recovery terminated by " + SignalName(sig);
    return out;
  }
  if (WIFEXITED(wstatus)) {
    const int code = WEXITSTATUS(wstatus);
    out.status = RecoveryStatus::kCrashed;
    if (code == 0) {
      out.detail = "recovery child exited without a verdict";
    } else {
      // How a sanitizer-instrumented child reports a wild-pointer fault:
      // ASan prints its report and exits nonzero instead of dying on the
      // signal.
      out.detail = "recovery child exited with status " +
                   std::to_string(code) + " before reporting a verdict";
    }
    return out;
  }
  out.status = RecoveryStatus::kCrashed;
  out.detail = "recovery child terminated abnormally";
  return out;
}

}  // namespace mumak
