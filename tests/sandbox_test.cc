// Tests for the sandboxed recovery oracle (src/sandbox): the wire
// protocol's robustness against truncated/corrupted frames, the
// wait-status classification table, crash-image handoff integrity, the
// fork server under strict isolation and with recycling (crash, timeout,
// retirement, fork safety), and the end-to-end behaviour of an injection
// campaign over deliberately broken recovery paths.

#include <gtest/gtest.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "src/core/fault_injection.h"
#include "src/core/report.h"
#include "src/instrument/shadow_call_stack.h"
#include "src/pmdk/obj_pool.h"
#include "src/pmem/pool_medium.h"
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
// The fork server. The scripted target's recovery behaviour is keyed off
// the first word of the crash image, so one factory covers every outcome.
// ---------------------------------------------------------------------

enum ScriptedOutcome : uint64_t {
  kScriptOk = 0,
  kScriptUnrecoverable = 1,
  kScriptWildDeref = 2,
  kScriptHang = 3,
  kScriptSilentExit = 4,
  kScriptWritePage = 5,
};

// The page kScriptWritePage's recovery fills (and persists) with this byte.
constexpr uint64_t kRecoveryPage = 2;
constexpr uint8_t kRecoveryFill = 0xee;

class ScriptedTarget : public Target {
 public:
  std::string_view name() const override { return "scripted"; }
  uint64_t DefaultPoolSize() const override { return 4096; }
  void Setup(PmPool& pool) override { pool.WriteU64(0, kScriptOk); }
  void Execute(PmPool&, const Op&) override {}
  void Finish(PmPool&) override {}
  uint64_t CodeSizeStatements() const override { return 1; }

  void Recover(PmPool& pool) override {
    // Interns a frame in the worker, as every real target's recovery does.
    MUMAK_FRAME();
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
      case kScriptWritePage:
        pool.Memset(kRecoveryPage * kMediumPageSize, kRecoveryFill,
                    kMediumPageSize);
        pool.PersistRange(kRecoveryPage * kMediumPageSize, kMediumPageSize);
        return;
      default:
        return;
    }
  }
};

SandboxTargetFactory ScriptedFactory() {
  return [] { return std::make_unique<ScriptedTarget>(); };
}

PoolMedium ScriptedImage(uint64_t outcome) {
  PoolMedium image(4096);
  image.Write(0, &outcome, sizeof(outcome));
  return image;
}

// True when no child of this process remains, reaped or not. Each sandbox
// test ends with this: the acceptance bar is zero zombies.
bool NoChildrenLeft() {
  return waitpid(-1, nullptr, WNOHANG) == -1 && errno == ECHILD;
}

// The pids of the calling thread's live children: the sandbox forks its
// first workers from the thread that constructs it.
std::vector<pid_t> ChildrenOfThisThread() {
  std::ifstream in("/proc/self/task/" + std::to_string(gettid()) +
                   "/children");
  std::vector<pid_t> pids;
  for (pid_t pid = 0; in >> pid;) {
    pids.push_back(pid);
  }
  return pids;
}

// Strict isolation: a fresh worker per check.
SandboxOptions StrictOptions() {
  SandboxOptions options;
  options.policy = SandboxPolicy::kForkServer;
  options.checks_per_fork = 1;
  return options;
}

TEST(SandboxStrict, OkVerdictCarriesDigestAndWallTime) {
  SandboxOptions options = StrictOptions();
  options.timeout_ms = 5000;
  options.verify_digest = true;
  {
    RecoverySandbox sandbox(ScriptedFactory(), 4096, 1, options);
    const PoolMedium image = ScriptedImage(kScriptOk);
    const SandboxVerdict v = sandbox.Check(0, image);
    EXPECT_EQ(v.status, RecoveryStatus::kOk);
    EXPECT_EQ(v.signal, 0);
    EXPECT_FALSE(v.timed_out);
    EXPECT_EQ(v.digest, ComputeImageDigest(image.data(), image.size()));
  }
  EXPECT_TRUE(NoChildrenLeft());  // the retired worker is reaped by now
}

TEST(SandboxStrict, UnrecoverableVerdictCrossesTheWire) {
  {
    RecoverySandbox sandbox(ScriptedFactory(), 4096, 1, StrictOptions());
    const SandboxVerdict v =
        sandbox.Check(0, ScriptedImage(kScriptUnrecoverable));
    EXPECT_EQ(v.status, RecoveryStatus::kUnrecoverable);
    EXPECT_NE(v.detail.find("unrecoverable"), std::string::npos);
    // verify_digest defaults off: the hot path skips the sampled walk.
    EXPECT_EQ(v.digest, 0u);
  }
  EXPECT_TRUE(NoChildrenLeft());
}

TEST(SandboxStrict, WildDerefBecomesCrashVerdict) {
  RecoverySandbox sandbox(ScriptedFactory(), 4096, 1, StrictOptions());
  const SandboxVerdict v = sandbox.Check(0, ScriptedImage(kScriptWildDeref));
  EXPECT_EQ(v.status, RecoveryStatus::kCrashed);
#if !defined(MUMAK_SANDBOX_ASAN)
  EXPECT_EQ(v.signal, SIGSEGV);
  EXPECT_NE(v.detail.find("SIGSEGV"), std::string::npos);
#endif
  EXPECT_TRUE(NoChildrenLeft());
}

TEST(SandboxStrict, HangIsKilledAtTheDeadlineAndReaped) {
  MetricsRegistry metrics;
  SandboxOptions options = StrictOptions();
  options.timeout_ms = 150;
  options.metrics = &metrics;
  RecoverySandbox sandbox(ScriptedFactory(), 4096, 1, options);

  const SandboxVerdict v = sandbox.Check(0, ScriptedImage(kScriptHang));
  EXPECT_EQ(v.status, RecoveryStatus::kTimeout);
  EXPECT_TRUE(v.timed_out);
  EXPECT_EQ(v.signal, SIGKILL);
  EXPECT_NE(v.detail.find("timed out"), std::string::npos);
  EXPECT_EQ(v.recovery_wall_us, 150u * 1000u);
  EXPECT_EQ(metrics.GetCounter("sandbox.timeouts")->value(), 1u);
  EXPECT_GE(metrics.GetCounter("sandbox.killed")->value(), 1u);
  EXPECT_TRUE(NoChildrenLeft());
}

TEST(SandboxStrict, SilentExitIsNotMistakenForSuccess) {
  RecoverySandbox sandbox(ScriptedFactory(), 4096, 1, StrictOptions());
  const SandboxVerdict v = sandbox.Check(0, ScriptedImage(kScriptSilentExit));
  EXPECT_EQ(v.status, RecoveryStatus::kCrashed);
  EXPECT_NE(v.detail.find("without a verdict"), std::string::npos);
  EXPECT_TRUE(NoChildrenLeft());
}

TEST(SandboxStrict, ForksWhileAnotherThreadReadsTheFrameRegistry) {
  // Each worker is forked from this thread while a second thread keeps
  // taking the frame registry's lock; the worker's first MUMAK_FRAME must
  // still intern, not block on a lock its fork inherited held.
  SandboxOptions options = StrictOptions();
#if defined(MUMAK_SANDBOX_ASAN)
  options.timeout_ms = 5000;
#else
  options.timeout_ms = 2000;
#endif
  const FrameId frame =
      FrameRegistry::Global().Intern("describer", "sandbox_test.cc", 1);
  std::jthread describer([frame](std::stop_token stop) {
    while (!stop.stop_requested()) {
      (void)FrameRegistry::Global().Describe(frame);
      std::this_thread::yield();
    }
  });
  {
    RecoverySandbox sandbox(ScriptedFactory(), 4096, 1, options);
    const PoolMedium image = ScriptedImage(kScriptOk);
    for (int i = 0; i < 64; ++i) {
      const SandboxVerdict v = sandbox.Check(0, image);
      ASSERT_EQ(v.status, RecoveryStatus::kOk)
          << "check " << i << ": " << v.detail;
    }
  }
  describer.request_stop();
  describer.join();
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
    const PoolMedium image = ScriptedImage(kScriptOk);
    for (int i = 0; i < 5; ++i) {
      const SandboxVerdict v = sandbox.Check(0, image);
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
    const PoolMedium ok = ScriptedImage(kScriptOk);

    EXPECT_EQ(sandbox.Check(0, ok).status, RecoveryStatus::kOk);
    EXPECT_EQ(sandbox.Check(0, ScriptedImage(kScriptWildDeref)).status,
              RecoveryStatus::kCrashed);
    // The lane respawns transparently after the crash...
    EXPECT_EQ(sandbox.Check(0, ok).status, RecoveryStatus::kOk);
    // ...and after a deadline kill.
    const SandboxVerdict t = sandbox.Check(0, ScriptedImage(kScriptHang));
    EXPECT_EQ(t.status, RecoveryStatus::kTimeout);
    EXPECT_TRUE(t.timed_out);
    EXPECT_EQ(sandbox.Check(0, ok).status, RecoveryStatus::kOk);
  }
  EXPECT_TRUE(NoChildrenLeft());
}

TEST(SandboxForkServer, NoStalePageReachesTheNextCheck) {
  // One worker that is never recycled rebuilds alternating images with
  // disjoint footprints, {0, 3} and then {1}; the first image's recovery
  // also writes page 2. Every check must see exactly its own image.
  constexpr size_t kPool = 8 * kMediumPageSize;
  SandboxOptions options;
  options.policy = SandboxPolicy::kForkServer;
  options.checks_per_fork = 0;
  options.verify_digest = true;
  auto fill = [](std::vector<uint8_t>* bytes, uint64_t page, uint8_t value) {
    std::memset(bytes->data() + page * kMediumPageSize, value,
                kMediumPageSize);
  };
  std::vector<uint8_t> a(kPool, 0);
  fill(&a, 0, 0xa0);
  const uint64_t outcome = kScriptWritePage;
  std::memcpy(a.data(), &outcome, sizeof(outcome));
  fill(&a, 3, 0xa3);
  std::vector<uint8_t> b(kPool, 0);
  fill(&b, 1, 0xb1);
  const PoolMedium image_a = PoolMedium::FromBytes(a);
  const PoolMedium image_b = PoolMedium::FromBytes(b);
  ASSERT_EQ(image_a.pages(), (std::vector<uint32_t>{0, 3}));
  ASSERT_EQ(image_b.pages(), (std::vector<uint32_t>{1}));
  {
    RecoverySandbox sandbox(ScriptedFactory(), kPool, 1, options);
    for (int i = 0; i < 6; ++i) {
      const bool is_a = i % 2 == 0;
      const SandboxVerdict v = sandbox.Check(0, is_a ? image_a : image_b);
      const std::vector<uint8_t>& expected = is_a ? a : b;
      EXPECT_EQ(v.status, RecoveryStatus::kOk) << "check " << i;
      EXPECT_EQ(v.digest, ComputeImageDigest(expected.data(), expected.size()))
          << "check " << i;
    }
  }
  EXPECT_TRUE(NoChildrenLeft());
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

TEST(SandboxForkServer, AWorkerThatStopsReadingCannotWedgeTheLane) {
  // 128 written pages (512 KiB) overflow the socket buffer, so the send
  // blocks until the worker reads. A stopped worker must cost the deadline
  // and a respawn, not hang the check.
  constexpr size_t kPool = 128 * kMediumPageSize;
  SandboxOptions options;
  options.policy = SandboxPolicy::kForkServer;
  options.checks_per_fork = 0;
  options.timeout_ms = 200;
  std::vector<uint8_t> bytes(kPool, 0x5a);
  const uint64_t outcome = kScriptOk;
  std::memcpy(bytes.data(), &outcome, sizeof(outcome));
  const PoolMedium image = PoolMedium::FromBytes(bytes);
  {
    RecoverySandbox sandbox(ScriptedFactory(), kPool, 1, options);
    const std::vector<pid_t> workers = ChildrenOfThisThread();
    ASSERT_EQ(workers.size(), 1u);
    ASSERT_EQ(kill(workers[0], SIGSTOP), 0);
    const SandboxVerdict v = sandbox.Check(0, image);
    EXPECT_EQ(v.status, RecoveryStatus::kOk) << v.detail;
  }
  EXPECT_TRUE(NoChildrenLeft());
}

// (strategy, jobs, checks_per_fork): re-execution hands the lane's medium
// to the sandbox, replay the cursor's copy of it.
using TransparencyCase = std::tuple<InjectionStrategy, uint32_t, uint32_t>;

class SandboxTransparency
    : public ::testing::TestWithParam<TransparencyCase> {};

std::vector<TransparencyCase> TransparencyCases() {
  std::vector<TransparencyCase> cases;
  for (const InjectionStrategy strategy :
       {InjectionStrategy::kReExecute, InjectionStrategy::kReplay}) {
    for (const uint32_t jobs : {1u, 4u}) {
      for (const uint32_t checks_per_fork : {1u, 256u}) {
#if defined(MUMAK_SANDBOX_ASAN)
        // Strict isolation at --jobs 4 forks from lane threads while the
        // other lanes allocate. Under ASan such a worker can block forever
        // inside the sanitizer runtime (in __sanitizer::FutexWait) on a
        // lock another lane held at the fork, so ASan builds run strict
        // isolation at --jobs 1 only.
        if (jobs > 1 && checks_per_fork == 1) {
          continue;
        }
#endif
        cases.emplace_back(strategy, jobs, checks_per_fork);
      }
    }
  }
  return cases;
}

TEST_P(SandboxTransparency, MatchesInProcessVerdictsOnASeededBug) {
  // On a target whose *recovery* is well-behaved, the sandbox must be an
  // invisible wrapper: same findings as the in-process oracle.
  const auto [strategy, jobs, checks_per_fork] = GetParam();
  TargetOptions target_options;
  target_options.bugs = {"btree.split_unlogged"};
  WorkloadSpec spec;
  spec.operations = 250;
  spec.key_space = 40;
  auto factory = [target_options]() -> TargetPtr {
    return std::make_unique<BtreeTarget>(target_options);
  };
  auto run = [&](SandboxPolicy policy) {
    FaultInjectionOptions options =
        SandboxedReplayOptions(policy, 5000, jobs);
    options.strategy = strategy;
    options.sandbox.checks_per_fork = checks_per_fork;
    FaultInjectionEngine engine(factory, spec, options);
    FaultInjectionStats stats;
    FailurePointTree tree = engine.Profile();
    return engine.InjectAll(&tree, &stats);
  };
  const Report baseline = run(SandboxPolicy::kInProcess);
  const Report sandboxed = run(SandboxPolicy::kForkServer);

  EXPECT_GT(baseline.BugCount(), 0u);
  ASSERT_EQ(baseline.findings().size(), sandboxed.findings().size());
  for (size_t i = 0; i < baseline.findings().size(); ++i) {
    const Finding& expected = baseline.findings()[i];
    const Finding& actual = sandboxed.findings()[i];
    EXPECT_EQ(expected.kind, actual.kind) << "finding " << i;
    EXPECT_EQ(expected.detail, actual.detail) << "finding " << i;
    EXPECT_EQ(expected.seq, actual.seq) << "finding " << i;
    EXPECT_EQ(expected.location, actual.location) << "finding " << i;
  }
  EXPECT_TRUE(NoChildrenLeft());
}

INSTANTIATE_TEST_SUITE_P(StrategiesJobsAndRecycling, SandboxTransparency,
                         ::testing::ValuesIn(TransparencyCases()));

}  // namespace
}  // namespace mumak
