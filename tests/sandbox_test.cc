// Tests for the sandboxed recovery oracle (src/sandbox): the wait-status
// classification table, crash-image handoff integrity, the fork server
// under strict isolation and with recycling (crash, timeout, retirement,
// fork safety), the worker's MFL1 replies (span frames, the truncated
// detail, a corrupted verdict), and the end-to-end behaviour of an
// injection campaign over deliberately broken recovery paths. The frame
// decoder itself is fuzzed in framing_fuzz_test.

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "src/core/fault_injection.h"
#include "src/core/report.h"
#include "src/instrument/shadow_call_stack.h"
#include "src/observability/flat_json.h"
#include "src/observability/frame_channel.h"
#include "src/observability/span_tracer.h"
#include "src/pmdk/obj_pool.h"
#include "src/pmem/pool_medium.h"
#include "src/sandbox/child.h"
#include "src/sandbox/options.h"
#include "src/sandbox/recovery_sandbox.h"
#include "src/targets/btree.h"
#include "src/targets/target.h"

namespace mumak {
namespace {

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

#if !defined(MUMAK_SANDBOX_SANITIZED)
// Under ASan or TSan these signals are intercepted and converted into a
// nonzero exit (covered by NonzeroExitIsCrashWithStatus); the raw-signal
// rows of the table only exist in builds without those runtimes.
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
  kScriptLongDetail = 6,
  kScriptCorruptReply = 7,
};

// The detail kScriptLongDetail's recovery fails with: over the 4 KiB a
// verdict carries.
const std::string& LongDetail() {
  static const std::string detail(10000, 'd');
  return detail;
}

// Writes a verdict frame with one flipped byte ("key 7 out of raoge") to
// every socket this process holds — in a sandbox worker, its reply
// channel (the worker closes the other lanes' ends after the fork).
void WriteCorruptVerdictToEverySocket() {
  std::string frame = EncodeFrame(JsonObject()
                                      .Str("type", "verdict")
                                      .U64("status", 0)
                                      .Str("detail", "key 7 out of range")
                                      .U64("wall_us", 1)
                                      .Str("digest", "0000000000000000")
                                      .Finish());
  frame[frame.find("range") + 2] ^= 0x01;
  for (int fd = 3; fd < 1024; ++fd) {
    struct stat st;
    if (fstat(fd, &st) == 0 && S_ISSOCK(st.st_mode)) {
      (void)send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
    }
  }
}

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
      case kScriptLongDetail:
        throw RecoveryFailure(LongDetail());
      case kScriptCorruptReply:
        WriteCorruptVerdictToEverySocket();
        for (;;) {
          pause();  // until the parent kills this worker
        }
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
    EXPECT_EQ(v.digest, image.Digest());
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
    // verify_digest defaults off: the hot path skips the digest walk.
    EXPECT_EQ(v.digest, ImageDigest());
  }
  EXPECT_TRUE(NoChildrenLeft());
}

TEST(SandboxStrict, WildDerefBecomesCrashVerdict) {
  RecoverySandbox sandbox(ScriptedFactory(), 4096, 1, StrictOptions());
  const SandboxVerdict v = sandbox.Check(0, ScriptedImage(kScriptWildDeref));
  EXPECT_EQ(v.status, RecoveryStatus::kCrashed);
#if !defined(MUMAK_SANDBOX_SANITIZED)
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
#if defined(MUMAK_SANDBOX_SANITIZED)
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

// ---------------------------------------------------------------------
// The worker's replies: MFL1 span and verdict frames.
// ---------------------------------------------------------------------

// One flipped byte in a verdict's detail fails the frame's CRC: the check
// is a crash finding, and the worker that sent it is killed and reaped
// right away, not at the deadline.
TEST(SandboxReply, AFlippedByteIsAMalformedVerdict) {
  MetricsRegistry metrics;
  SandboxOptions options;
  options.policy = SandboxPolicy::kForkServer;
  options.timeout_ms = 5000;
  options.metrics = &metrics;
  {
    RecoverySandbox sandbox(ScriptedFactory(), 4096, 1, options);
    const auto started = std::chrono::steady_clock::now();
    const SandboxVerdict v =
        sandbox.Check(0, ScriptedImage(kScriptCorruptReply));
    EXPECT_LT(std::chrono::steady_clock::now() - started,
              std::chrono::milliseconds(options.timeout_ms / 2));
    EXPECT_EQ(v.status, RecoveryStatus::kCrashed);
    EXPECT_NE(v.detail.find("malformed verdict"), std::string::npos)
        << v.detail;
    EXPECT_EQ(v.detail.find("raoge"), std::string::npos) << v.detail;
    EXPECT_EQ(metrics.GetCounter("sandbox.killed")->value(), 1u);
    EXPECT_EQ(metrics.GetCounter("sandbox.timeouts")->value(), 0u);
    // The lane respawns for the next check.
    EXPECT_EQ(sandbox.Check(0, ScriptedImage(kScriptOk)).status,
              RecoveryStatus::kOk);
  }
  EXPECT_TRUE(NoChildrenLeft());
}

TEST(SandboxReply, DetailIsTruncatedTo4KiB) {
  RecoverySandbox sandbox(ScriptedFactory(), 4096, 1, StrictOptions());
  const SandboxVerdict v = sandbox.Check(0, ScriptedImage(kScriptLongDetail));
  EXPECT_EQ(v.status, RecoveryStatus::kUnrecoverable);
  EXPECT_EQ(v.detail, LongDetail().substr(0, 4096));
}

// With a tracer the worker times its sub-phases and sends them as span
// frames ahead of the verdict; the parent grafts them onto the check's
// lane, rebased onto the dispatch. (The worker may start its clock a few
// microseconds before the parent reads the dispatch time, so only the
// order within the check is exact.)
TEST(SandboxReply, WorkerSpansReachTheTracer) {
  SpanTracer tracer;
  SandboxOptions options;
  options.policy = SandboxPolicy::kForkServer;
  options.verify_digest = true;
  options.tracer = &tracer;
  {
    RecoverySandbox sandbox(ScriptedFactory(), 4096, 2, options);
    const uint64_t before_us = tracer.NowMicros();
    ASSERT_EQ(sandbox.Check(1, ScriptedImage(kScriptOk)).status,
              RecoveryStatus::kOk);
    const std::vector<SpanEvent> spans = tracer.Events();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].name, "image_digest");
    EXPECT_EQ(spans[1].name, "recovery_oracle");
    EXPECT_GE(spans[0].start_us, before_us);
    EXPECT_GE(spans[1].start_us, spans[0].start_us + spans[0].duration_us);
    for (const SpanEvent& span : spans) {
      EXPECT_EQ(span.category, "recovery-child");
      EXPECT_EQ(span.tid, 2u);
      ASSERT_EQ(span.args.size(), 1u);
      EXPECT_EQ(span.args[0].first, "worker_pid");
    }
  }
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
      EXPECT_EQ(v.digest, image.Digest());
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
#if defined(MUMAK_SANDBOX_SANITIZED)
  // One deadline serves the crash check and the hang check. A sanitized
  // child prints a symbolized SEGV report before it exits, which under a
  // loaded `ctest -j` can outlast 150 ms and turn the crash into a timeout.
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
      // The footprint digest the worker took before recovery: every byte
      // of the rebuilt image, not a sample.
      EXPECT_EQ(v.digest, (is_a ? image_a : image_b).Digest())
          << "check " << i;
      EXPECT_EQ(v.digest, ComputeContentDigest(expected.data(), expected.size()))
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
#if !defined(MUMAK_SANDBOX_SANITIZED)
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
#if defined(MUMAK_SANDBOX_SANITIZED)
        // Strict isolation at --jobs 4 forks from lane threads while the
        // other lanes allocate. Under a sanitizer such a worker can block
        // forever inside its runtime (in __sanitizer::FutexWait) on a lock
        // another lane held at the fork, so sanitized builds run strict
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
