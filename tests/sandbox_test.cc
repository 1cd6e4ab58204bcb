// Tests for the sandboxed recovery oracle (src/sandbox): the wire
// protocol's robustness against truncated/corrupted frames, the
// wait-status classification table, crash-image handoff integrity, the
// fork-per-check and fork-server policies (crash, timeout, recycle), and
// the end-to-end behaviour of an injection campaign over deliberately
// broken recovery paths.

#include <gtest/gtest.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "src/core/fault_injection.h"
#include "src/core/report.h"
#include "src/pmdk/obj_pool.h"
#include "src/sandbox/child.h"
#include "src/sandbox/options.h"
#include "src/sandbox/recovery_sandbox.h"
#include "src/sandbox/wire.h"
#include "src/targets/btree.h"
#include "src/targets/target.h"

namespace mumak {
namespace {

// ---------------------------------------------------------------------
// Wire protocol.
// ---------------------------------------------------------------------

WireVerdict SampleVerdict() {
  WireVerdict v;
  v.status = static_cast<uint32_t>(RecoveryStatus::kUnrecoverable);
  v.signal = 11;
  v.timed_out = true;
  v.wall_us = 123456789ull;
  v.digest = 0xdeadbeefcafef00dull;
  v.detail = "lookup mismatch at key 42";
  return v;
}

TEST(SandboxWire, RoundTripPreservesEveryField) {
  const WireVerdict in = SampleVerdict();
  const std::vector<uint8_t> frame = EncodeVerdict(in);

  WireVerdict out;
  size_t consumed = 0;
  ASSERT_EQ(DecodeVerdict(frame.data(), frame.size(), &out, &consumed),
            WireDecodeStatus::kOk);
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(out.status, in.status);
  EXPECT_EQ(out.signal, in.signal);
  EXPECT_EQ(out.timed_out, in.timed_out);
  EXPECT_EQ(out.wall_us, in.wall_us);
  EXPECT_EQ(out.digest, in.digest);
  EXPECT_EQ(out.detail, in.detail);
}

TEST(SandboxWire, EveryTruncatedPrefixAsksForMoreData) {
  // A child killed mid-write leaves an arbitrary prefix in the pipe; the
  // parent must classify every prefix as incomplete, never as a verdict.
  const std::vector<uint8_t> frame = EncodeVerdict(SampleVerdict());
  for (size_t len = 0; len < frame.size(); ++len) {
    WireVerdict out;
    size_t consumed = 0;
    EXPECT_EQ(DecodeVerdict(frame.data(), len, &out, &consumed),
              WireDecodeStatus::kNeedMoreData)
        << "prefix length " << len;
  }
}

TEST(SandboxWire, BadMagicRejected) {
  std::vector<uint8_t> frame = EncodeVerdict(SampleVerdict());
  frame[0] ^= 0xff;
  WireVerdict out;
  size_t consumed = 0;
  EXPECT_EQ(DecodeVerdict(frame.data(), frame.size(), &out, &consumed),
            WireDecodeStatus::kBadMagic);
}

TEST(SandboxWire, OversizedPayloadRejectedWithoutWaiting) {
  // A corrupted length must be rejected immediately, not treated as
  // "wait for 4 GB more".
  std::vector<uint8_t> frame = EncodeVerdict(SampleVerdict());
  const uint32_t huge = static_cast<uint32_t>(kWireMaxPayload + 1);
  std::memcpy(frame.data() + 4, &huge, sizeof(huge));
  WireVerdict out;
  size_t consumed = 0;
  EXPECT_EQ(DecodeVerdict(frame.data(), frame.size(), &out, &consumed),
            WireDecodeStatus::kOversized);
}

TEST(SandboxWire, InconsistentDetailLengthIsMalformed) {
  // payload_len says 5 detail bytes follow, detail_len claims 3: the
  // internal lengths disagree and the frame must be rejected.
  std::vector<uint8_t> frame = EncodeVerdict(SampleVerdict());
  const uint32_t lying = 3;
  // Detail length lives after status/signal/flags (3 x u32) + wall/digest
  // (2 x u64) = 28 payload bytes, behind the 8-byte frame header.
  std::memcpy(frame.data() + kWireHeaderBytes + 28, &lying, sizeof(lying));
  WireVerdict out;
  size_t consumed = 0;
  EXPECT_EQ(DecodeVerdict(frame.data(), frame.size(), &out, &consumed),
            WireDecodeStatus::kMalformed);
}

TEST(SandboxWire, DetailTruncatedToCapOnEncode) {
  WireVerdict in;
  in.detail.assign(kWireMaxDetail + 1000, 'x');
  const std::vector<uint8_t> frame = EncodeVerdict(in);
  WireVerdict out;
  size_t consumed = 0;
  ASSERT_EQ(DecodeVerdict(frame.data(), frame.size(), &out, &consumed),
            WireDecodeStatus::kOk);
  EXPECT_EQ(out.detail.size(), kWireMaxDetail);
}

TEST(SandboxWire, SpanRoundTripAndClassification) {
  WireSpan in;
  in.name = "recovery_oracle";
  in.start_us = 1234;
  in.duration_us = 56789;
  const std::vector<uint8_t> frame = EncodeSpan(in);
  ASSERT_TRUE(IsSpanFrame(frame.data(), frame.size()));
  WireSpan out;
  size_t consumed = 0;
  ASSERT_EQ(DecodeSpan(frame.data(), frame.size(), &out, &consumed),
            WireDecodeStatus::kOk);
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(out.name, in.name);
  EXPECT_EQ(out.start_us, in.start_us);
  EXPECT_EQ(out.duration_us, in.duration_us);
  // Verdict frames must not classify as spans and vice versa.
  const std::vector<uint8_t> verdict = EncodeVerdict(SampleVerdict());
  EXPECT_FALSE(IsSpanFrame(verdict.data(), verdict.size()));
}

TEST(SandboxWire, SpanPrefixesAskForMoreData) {
  // AwaitVerdict peeks at the buffer head after every read; a partially
  // received span frame must read as incomplete, never as corruption
  // (which would get the child killed).
  const std::vector<uint8_t> frame = EncodeSpan({"image_digest", 7, 8});
  for (size_t len = 4; len < frame.size(); ++len) {
    if (!IsSpanFrame(frame.data(), len)) {
      continue;  // too short to even see the magic
    }
    WireSpan out;
    size_t consumed = 0;
    EXPECT_EQ(DecodeSpan(frame.data(), len, &out, &consumed),
              WireDecodeStatus::kNeedMoreData)
        << "prefix length " << len;
  }
}

TEST(SandboxWire, SpanNameTruncatedToCapOnEncode) {
  WireSpan in;
  in.name.assign(kWireMaxSpanName + 100, 'n');
  in.start_us = 1;
  in.duration_us = 2;
  const std::vector<uint8_t> frame = EncodeSpan(in);
  WireSpan out;
  size_t consumed = 0;
  ASSERT_EQ(DecodeSpan(frame.data(), frame.size(), &out, &consumed),
            WireDecodeStatus::kOk);
  EXPECT_EQ(out.name.size(), kWireMaxSpanName);
}

// ---------------------------------------------------------------------
// Wait-status classification.
// ---------------------------------------------------------------------

// Runs `body` in a fork and returns the real wait status — the
// classification table is tested against statuses the kernel produced,
// not hand-encoded ones.
template <typename Body>
int WaitStatusOf(Body body) {
  const pid_t pid = fork();
  if (pid == 0) {
    body();
    _exit(0);
  }
  int wstatus = 0;
  EXPECT_EQ(waitpid(pid, &wstatus, 0), pid);
  return wstatus;
}

TEST(SandboxClassify, CleanExitMeansNoVerdictArrived) {
  const TerminationClass c = ClassifyWaitStatus(WaitStatusOf([] {}));
  EXPECT_EQ(c.status, RecoveryStatus::kCrashed);
  EXPECT_EQ(c.signal, 0);
  EXPECT_FALSE(c.timed_out);
  EXPECT_NE(c.detail.find("without a verdict"), std::string::npos);
}

TEST(SandboxClassify, NonzeroExitIsCrashWithStatus) {
  const TerminationClass c = ClassifyWaitStatus(WaitStatusOf([] {
    _exit(7);
  }));
  EXPECT_EQ(c.status, RecoveryStatus::kCrashed);
  EXPECT_EQ(c.signal, 0);
  EXPECT_NE(c.detail.find("status 7"), std::string::npos);
}

TEST(SandboxClassify, SigkillIsCrashWithSignalRecorded) {
  const TerminationClass c = ClassifyWaitStatus(WaitStatusOf([] {
    raise(SIGKILL);
  }));
  EXPECT_EQ(c.status, RecoveryStatus::kCrashed);
  EXPECT_EQ(c.signal, SIGKILL);
  EXPECT_NE(c.detail.find("SIGKILL"), std::string::npos);
}

TEST(SandboxClassify, SigxcpuIsTheCpuCapBackstopTimeout) {
  const TerminationClass c = ClassifyWaitStatus(WaitStatusOf([] {
    raise(SIGXCPU);
  }));
  EXPECT_EQ(c.status, RecoveryStatus::kTimeout);
  EXPECT_TRUE(c.timed_out);
  EXPECT_EQ(c.signal, SIGXCPU);
}

#if !defined(MUMAK_SANDBOX_ASAN)
// Under ASan these signals are intercepted and converted into a nonzero
// exit (covered by NonzeroExitIsCrashWithStatus); the raw-signal rows of
// the table only exist in uninstrumented builds.
TEST(SandboxClassify, FatalSignalTable) {
  for (const int sig : {SIGSEGV, SIGBUS, SIGABRT, SIGFPE}) {
    const TerminationClass c = ClassifyWaitStatus(WaitStatusOf([sig] {
      signal(sig, SIG_DFL);
      raise(sig);
    }));
    EXPECT_EQ(c.status, RecoveryStatus::kCrashed) << SignalName(sig);
    EXPECT_EQ(c.signal, sig) << SignalName(sig);
    EXPECT_FALSE(c.timed_out);
    EXPECT_NE(c.detail.find(SignalName(sig)), std::string::npos);
  }
}
#endif

TEST(SandboxClassify, SignalNamesAreHumanReadable) {
  EXPECT_EQ(SignalName(SIGSEGV), "SIGSEGV");
  EXPECT_EQ(SignalName(SIGBUS), "SIGBUS");
  EXPECT_EQ(SignalName(SIGKILL), "SIGKILL");
  EXPECT_NE(SignalName(1000).find("1000"), std::string::npos);
}

TEST(SandboxDigest, StableAndSensitiveToContent) {
  std::vector<uint8_t> image(64 * 1024, 0);
  for (size_t i = 0; i < image.size(); ++i) {
    image[i] = static_cast<uint8_t>(i * 31);
  }
  const uint64_t a = ComputeImageDigest(image.data(), image.size());
  EXPECT_EQ(a, ComputeImageDigest(image.data(), image.size()));
  // The digest is sampled (size + leading bytes + a fixed stride), so
  // perturb a byte it is guaranteed to cover: one of the leading 256.
  image[7] ^= 1;
  EXPECT_NE(a, ComputeImageDigest(image.data(), image.size()));
  // Size participates even when the sampled bytes agree.
  EXPECT_NE(ComputeImageDigest(image.data(), 16),
            ComputeImageDigest(image.data(), 17));
}

// ---------------------------------------------------------------------
// Sandbox policies. The scripted target's recovery behaviour is keyed off
// the first word of the crash image, so one factory covers every outcome.
// ---------------------------------------------------------------------

enum ScriptedOutcome : uint64_t {
  kScriptOk = 0,
  kScriptUnrecoverable = 1,
  kScriptWildDeref = 2,
  kScriptHang = 3,
  kScriptSilentExit = 4,
};

class ScriptedTarget : public Target {
 public:
  std::string_view name() const override { return "scripted"; }
  uint64_t DefaultPoolSize() const override { return 4096; }
  void Setup(PmPool& pool) override { pool.WriteU64(0, kScriptOk); }
  void Execute(PmPool&, const Op&) override {}
  void Finish(PmPool&) override {}
  uint64_t CodeSizeStatements() const override { return 1; }

  void Recover(PmPool& pool) override {
    switch (pool.ReadU64(0)) {
      case kScriptOk:
        return;
      case kScriptUnrecoverable:
        throw RecoveryFailure("scripted: state flagged unrecoverable");
      case kScriptWildDeref: {
        // Runtime-computed sub-page address (below mmap_min_addr, so it is
        // never mapped) — volatile so the compiler cannot prove the deref
        // out of bounds and fold it away.
        volatile uintptr_t torn = 0xfe8;
        volatile const uint64_t* wild =
            reinterpret_cast<const uint64_t*>(torn);
        (void)*wild;
        return;
      }
      case kScriptHang: {
        volatile uint64_t spin = 1;
        while (spin != 0) {
          spin = spin * 6364136223846793005ull + 1442695040888963407ull;
          if (spin == 0) spin = 1;
        }
        return;
      }
      case kScriptSilentExit:
        _exit(0);  // dies without writing a verdict
      default:
        return;
    }
  }
};

SandboxTargetFactory ScriptedFactory() {
  return [] { return std::make_unique<ScriptedTarget>(); };
}

std::vector<uint8_t> ScriptedImage(uint64_t outcome) {
  std::vector<uint8_t> image(4096, 0);
  std::memcpy(image.data(), &outcome, sizeof(outcome));
  return image;
}

// True when no child of this process remains, reaped or not. Each sandbox
// test ends with this: the acceptance bar is zero zombies.
bool NoChildrenLeft() {
  return waitpid(-1, nullptr, WNOHANG) == -1 && errno == ECHILD;
}

TEST(SandboxForkPerCheck, OkVerdictCarriesDigestAndWallTime) {
  SandboxOptions options;
  options.policy = SandboxPolicy::kForkPerCheck;
  options.timeout_ms = 5000;
  options.verify_digest = true;
  RecoverySandbox sandbox(ScriptedFactory(), 4096, 1, options);

  const std::vector<uint8_t> image = ScriptedImage(kScriptOk);
  const SandboxVerdict v = sandbox.Check(0, image.data(), image.size());
  EXPECT_EQ(v.status, RecoveryStatus::kOk);
  EXPECT_EQ(v.signal, 0);
  EXPECT_FALSE(v.timed_out);
  EXPECT_EQ(v.digest, ComputeImageDigest(image.data(), image.size()));
  EXPECT_TRUE(NoChildrenLeft());
}

TEST(SandboxForkPerCheck, UnrecoverableVerdictCrossesTheWire) {
  SandboxOptions options;
  options.policy = SandboxPolicy::kForkPerCheck;
  RecoverySandbox sandbox(ScriptedFactory(), 4096, 1, options);

  const std::vector<uint8_t> image = ScriptedImage(kScriptUnrecoverable);
  const SandboxVerdict v = sandbox.Check(0, image.data(), image.size());
  EXPECT_EQ(v.status, RecoveryStatus::kUnrecoverable);
  EXPECT_NE(v.detail.find("unrecoverable"), std::string::npos);
  // verify_digest defaults off: the hot path skips the sampled walk.
  EXPECT_EQ(v.digest, 0u);
  EXPECT_TRUE(NoChildrenLeft());
}

TEST(SandboxForkPerCheck, WildDerefBecomesCrashVerdict) {
  SandboxOptions options;
  options.policy = SandboxPolicy::kForkPerCheck;
  RecoverySandbox sandbox(ScriptedFactory(), 4096, 1, options);

  const std::vector<uint8_t> image = ScriptedImage(kScriptWildDeref);
  const SandboxVerdict v = sandbox.Check(0, image.data(), image.size());
  EXPECT_EQ(v.status, RecoveryStatus::kCrashed);
#if !defined(MUMAK_SANDBOX_ASAN)
  EXPECT_EQ(v.signal, SIGSEGV);
  EXPECT_NE(v.detail.find("SIGSEGV"), std::string::npos);
#endif
  EXPECT_TRUE(NoChildrenLeft());
}

TEST(SandboxForkPerCheck, HangIsKilledAtTheDeadlineAndReaped) {
  MetricsRegistry metrics;
  SandboxOptions options;
  options.policy = SandboxPolicy::kForkPerCheck;
  options.timeout_ms = 150;
  options.metrics = &metrics;
  RecoverySandbox sandbox(ScriptedFactory(), 4096, 1, options);

  const std::vector<uint8_t> image = ScriptedImage(kScriptHang);
  const SandboxVerdict v = sandbox.Check(0, image.data(), image.size());
  EXPECT_EQ(v.status, RecoveryStatus::kTimeout);
  EXPECT_TRUE(v.timed_out);
  EXPECT_EQ(v.signal, SIGKILL);
  EXPECT_NE(v.detail.find("timed out"), std::string::npos);
  EXPECT_EQ(v.recovery_wall_us, 150u * 1000u);
  EXPECT_EQ(metrics.GetCounter("sandbox.timeouts")->value(), 1u);
  EXPECT_GE(metrics.GetCounter("sandbox.killed")->value(), 1u);
  EXPECT_TRUE(NoChildrenLeft());
}

TEST(SandboxForkPerCheck, SilentExitIsNotMistakenForSuccess) {
  SandboxOptions options;
  options.policy = SandboxPolicy::kForkPerCheck;
  RecoverySandbox sandbox(ScriptedFactory(), 4096, 1, options);

  const std::vector<uint8_t> image = ScriptedImage(kScriptSilentExit);
  const SandboxVerdict v = sandbox.Check(0, image.data(), image.size());
  EXPECT_EQ(v.status, RecoveryStatus::kCrashed);
  EXPECT_NE(v.detail.find("without a verdict"), std::string::npos);
  EXPECT_TRUE(NoChildrenLeft());
}

TEST(SandboxForkServer, WorkerSurvivesAcrossChecksAndRecycles) {
  MetricsRegistry metrics;
  SandboxOptions options;
  options.policy = SandboxPolicy::kForkServer;
  options.checks_per_fork = 2;
  options.metrics = &metrics;
  options.verify_digest = true;
  {
    RecoverySandbox sandbox(ScriptedFactory(), 4096, 1, options);
    const std::vector<uint8_t> image = ScriptedImage(kScriptOk);
    for (int i = 0; i < 5; ++i) {
      const SandboxVerdict v = sandbox.Check(0, image.data(), image.size());
      EXPECT_EQ(v.status, RecoveryStatus::kOk) << "check " << i;
      EXPECT_EQ(v.digest, ComputeImageDigest(image.data(), image.size()));
    }
    // 5 checks at 2 per fork: the eager worker plus at least 2 recycles.
    EXPECT_GE(metrics.GetCounter("sandbox.forks")->value(), 3u);
    EXPECT_EQ(metrics.GetHistogram("recovery.sandbox_us")->count(), 5u);
  }
  EXPECT_TRUE(NoChildrenLeft());
}

TEST(SandboxForkServer, CrashDoesNotPoisonTheLane) {
  SandboxOptions options;
  options.policy = SandboxPolicy::kForkServer;
#if defined(MUMAK_SANDBOX_ASAN)
  // One deadline serves the crash check and the hang check. An ASan child
  // prints a symbolized SEGV report before it exits, which under a loaded
  // `ctest -j` can outlast 150 ms and turn the crash into a timeout.
  options.timeout_ms = 5000;
#else
  options.timeout_ms = 150;
#endif
  {
    RecoverySandbox sandbox(ScriptedFactory(), 4096, 1, options);
    const std::vector<uint8_t> ok = ScriptedImage(kScriptOk);
    const std::vector<uint8_t> crash = ScriptedImage(kScriptWildDeref);
    const std::vector<uint8_t> hang = ScriptedImage(kScriptHang);

    EXPECT_EQ(sandbox.Check(0, ok.data(), ok.size()).status,
              RecoveryStatus::kOk);
    EXPECT_EQ(sandbox.Check(0, crash.data(), crash.size()).status,
              RecoveryStatus::kCrashed);
    // The lane respawns transparently after the crash...
    EXPECT_EQ(sandbox.Check(0, ok.data(), ok.size()).status,
              RecoveryStatus::kOk);
    // ...and after a deadline kill.
    const SandboxVerdict t = sandbox.Check(0, hang.data(), hang.size());
    EXPECT_EQ(t.status, RecoveryStatus::kTimeout);
    EXPECT_TRUE(t.timed_out);
    EXPECT_EQ(sandbox.Check(0, ok.data(), ok.size()).status,
              RecoveryStatus::kOk);
  }
  EXPECT_TRUE(NoChildrenLeft());
}

TEST(SandboxForkServer, PreloadedImageBufferSkipsTheCopy) {
  SandboxOptions options;
  options.policy = SandboxPolicy::kForkServer;
  options.verify_digest = true;
  RecoverySandbox sandbox(ScriptedFactory(), 4096, 1, options);

  uint8_t* buffer = sandbox.ImageBuffer(0);
  ASSERT_NE(buffer, nullptr);
  const std::vector<uint8_t> image = ScriptedImage(kScriptOk);
  std::memcpy(buffer, image.data(), image.size());

  // nullptr data = "the slot buffer is already loaded".
  const SandboxVerdict v = sandbox.Check(0, nullptr, image.size());
  EXPECT_EQ(v.status, RecoveryStatus::kOk);
  EXPECT_EQ(v.digest, ComputeImageDigest(image.data(), image.size()));
}

// ---------------------------------------------------------------------
// End-to-end: an injection campaign over deliberately broken recovery
// paths must complete and report the hazard, not die from it.
// ---------------------------------------------------------------------

FaultInjectionOptions SandboxedReplayOptions(SandboxPolicy policy,
                                             uint32_t timeout_ms,
                                             uint32_t workers) {
  FaultInjectionOptions options;
  options.strategy = InjectionStrategy::kReplay;
  options.workers = workers;
  options.sandbox.policy = policy;
  options.sandbox.timeout_ms = timeout_ms;
  return options;
}

TEST(SandboxEngine, RecoverySegfaultBecomesACrashFinding) {
  TargetOptions target_options;
  target_options.bugs = {"btree.recovery_wild_deref"};
  WorkloadSpec spec;
  spec.operations = 150;
  spec.key_space = 30;
  auto factory = [target_options]() -> TargetPtr {
    return std::make_unique<BtreeTarget>(target_options);
  };

  FaultInjectionEngine engine(
      factory, spec,
      SandboxedReplayOptions(SandboxPolicy::kForkServer, 5000, 2));
  FaultInjectionStats stats;
  FailurePointTree tree = engine.Profile();
  const Report report = engine.InjectAll(&tree, &stats);

  // Every failure point completed despite recovery segfaulting.
  EXPECT_EQ(tree.UnvisitedCount(), 0u);
  EXPECT_EQ(stats.injections, stats.failure_points);

  bool found = false;
  for (const Finding& f : report.findings()) {
    if (f.kind != FindingKind::kRecoveryCrash) continue;
    found = true;
#if !defined(MUMAK_SANDBOX_ASAN)
    EXPECT_EQ(f.signal_name, "SIGSEGV");
#endif
    EXPECT_FALSE(f.location.empty());
  }
  EXPECT_TRUE(found) << report.Render();
  EXPECT_TRUE(NoChildrenLeft());
}

TEST(SandboxEngine, RecoveryHangBecomesATimeoutFinding) {
  TargetOptions target_options;
  target_options.bugs = {"btree.recovery_spin"};
  WorkloadSpec spec;
  spec.operations = 60;
  spec.key_space = 16;
  auto factory = [target_options]() -> TargetPtr {
    return std::make_unique<BtreeTarget>(target_options);
  };

  FaultInjectionOptions options =
      SandboxedReplayOptions(SandboxPolicy::kForkServer, 100, 2);
  FaultInjectionEngine engine(factory, spec, options);
  FaultInjectionStats stats;
  FailurePointTree tree = engine.Profile();
  const Report report = engine.InjectAll(&tree, &stats);

  EXPECT_EQ(tree.UnvisitedCount(), 0u);

  bool found = false;
  for (const Finding& f : report.findings()) {
    if (f.kind != FindingKind::kRecoveryTimeout) continue;
    found = true;
    EXPECT_TRUE(f.timed_out);
    EXPECT_EQ(f.signal_name, "SIGKILL");
    EXPECT_EQ(f.recovery_wall_us, 100u * 1000u);
  }
  EXPECT_TRUE(found) << report.Render();
  EXPECT_TRUE(NoChildrenLeft());
}

TEST(SandboxEngine, MatchesInProcessVerdictsOnASeededBug) {
  // On a target whose *recovery* is well-behaved, the sandbox must be an
  // invisible wrapper: same findings as the in-process oracle.
  TargetOptions target_options;
  target_options.bugs = {"btree.split_unlogged"};
  WorkloadSpec spec;
  spec.operations = 250;
  spec.key_space = 40;
  auto factory = [target_options]() -> TargetPtr {
    return std::make_unique<BtreeTarget>(target_options);
  };

  FaultInjectionOptions in_process_options;
  in_process_options.strategy = InjectionStrategy::kReplay;
  FaultInjectionEngine in_process(factory, spec, in_process_options);
  FaultInjectionStats in_process_stats;
  FailurePointTree in_process_tree = in_process.Profile();
  const Report baseline =
      in_process.InjectAll(&in_process_tree, &in_process_stats);

  FaultInjectionEngine sandboxed(
      factory, spec,
      SandboxedReplayOptions(SandboxPolicy::kForkServer, 5000, 1));
  FaultInjectionStats sandboxed_stats;
  FailurePointTree sandboxed_tree = sandboxed.Profile();
  const Report sandboxed_report =
      sandboxed.InjectAll(&sandboxed_tree, &sandboxed_stats);

  EXPECT_GT(baseline.BugCount(), 0u);
  ASSERT_EQ(baseline.findings().size(), sandboxed_report.findings().size());
  for (size_t i = 0; i < baseline.findings().size(); ++i) {
    EXPECT_EQ(baseline.findings()[i].kind, sandboxed_report.findings()[i].kind);
    EXPECT_EQ(baseline.findings()[i].detail,
              sandboxed_report.findings()[i].detail);
  }
  EXPECT_TRUE(NoChildrenLeft());
}

}  // namespace
}  // namespace mumak
