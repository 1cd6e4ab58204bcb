#include "src/sandbox/recovery_sandbox.h"

#include <errno.h>
#include <limits.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <span>

#include "src/observability/flat_json.h"
#include "src/observability/span_tracer.h"
#include "src/sandbox/child.h"

namespace mumak {
namespace {

using Clock = std::chrono::steady_clock;

// Command sent to a fork-server worker per check, followed by `page_count`
// u32 page indices and then those pages' bytes in the same order (the last
// page of the pool may be partial). Raw struct copy is fine here: both
// ends are forks of the same binary.
struct CmdHeader {
  uint64_t image_size = 0;
  uint64_t page_count = 0;
};

// Exit status of a worker sent a command it cannot serve; the parent
// classifies the nonzero exit as a crash.
constexpr int kProtocolViolation = 3;

// Payload cap on a worker's reply frames, and the detail length a verdict
// is truncated to before it is sent (JSON escaping at most sextuples it).
constexpr uint32_t kReplyMaxPayload = 64u << 10;
constexpr size_t kReplyMaxDetail = 4096;

// Death-probe interval while waiting for a verdict. EOF on the channel
// reports most deaths instantly; the probe covers write-end file
// descriptors leaked into sibling children by concurrent forks.
constexpr auto kDeathProbe = std::chrono::milliseconds(20);

// Sends every byte of `iov` (consumed in place), IOV_MAX entries per call.
// sendmsg() so a dead peer yields EPIPE instead of a fatal SIGPIPE.
bool SendFull(int fd, std::span<iovec> iov) {
  size_t at = 0;
  for (;;) {
    while (at < iov.size() && iov[at].iov_len == 0) {
      ++at;
    }
    if (at == iov.size()) {
      return true;
    }
    msghdr msg{};
    msg.msg_iov = iov.data() + at;
    msg.msg_iovlen = std::min<size_t>(iov.size() - at, IOV_MAX);
    ssize_t n = sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    for (; n > 0 && static_cast<size_t>(n) >= iov[at].iov_len; ++at) {
      n -= static_cast<ssize_t>(iov[at].iov_len);
    }
    if (n > 0) {
      iov[at].iov_base = static_cast<uint8_t*>(iov[at].iov_base) + n;
      iov[at].iov_len -= static_cast<size_t>(n);
    }
  }
}

// Blocking full read; returns false on EOF or error. Worker side only —
// the parent never reads without a deadline.
bool ReadFull(int fd, void* data, size_t size) {
  uint8_t* p = static_cast<uint8_t*>(data);
  while (size > 0) {
    const ssize_t n = read(fd, p, size);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    if (n == 0) {
      return false;
    }
    p += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

// The whole command for one check: header, page list, and one iovec per
// page pointing into `image` (no copy).
bool SendImage(int fd, const PoolMedium& image) {
  const std::vector<uint32_t>& pages = image.pages();
  CmdHeader cmd;
  cmd.image_size = image.size();
  cmd.page_count = pages.size();
  std::vector<iovec> iov;
  iov.reserve(pages.size() + 2);
  iov.push_back({&cmd, sizeof(cmd)});
  iov.push_back({const_cast<uint32_t*>(pages.data()),
                 pages.size() * sizeof(uint32_t)});
  for (const uint32_t page : pages) {
    const std::span<uint8_t> bytes = image.Page(page);
    iov.push_back({bytes.data(), bytes.size()});
  }
  return SendFull(fd, iov);
}

// A worker's replies to one check: a span frame per sub-phase it timed,
// then the verdict frame. Signal and timeout are the parent's to fill in
// on an abnormal death, so they do not travel; the digest is 128-bit and
// travels as 32 hex digits.
std::string SpanMessage(const SpanEvent& span) {
  return JsonObject()
      .Str("type", "span")
      .Str("name", span.name)
      .U64("start_us", span.start_us)
      .U64("duration_us", span.duration_us)
      .Finish();
}

std::string VerdictMessage(const SandboxVerdict& verdict) {
  return JsonObject()
      .Str("type", "verdict")
      .U64("status", static_cast<uint64_t>(verdict.status))
      .Str("detail", verdict.detail.substr(0, kReplyMaxDetail))
      .U64("wall_us", verdict.recovery_wall_us)
      .Str("digest", verdict.digest.Hex())
      .Finish();
}

// Long-lived fork-server worker: rebuild each check's image from its
// footprint in one private medium and recover there, until the command
// channel closes. Runs in the child; never returns.
[[noreturn]] void WorkerMain(int fd, const SandboxTargetFactory& factory,
                             size_t pool_size, bool verify_digest,
                             bool emit_spans) {
  FrameChannel channel(fd, kReplyMaxPayload);
  PoolMedium image(pool_size);
  const uint64_t pool_pages =
      (pool_size + kMediumPageSize - 1) / kMediumPageSize;
  std::vector<uint32_t> pages;
  for (;;) {
    CmdHeader cmd;
    if (!ReadFull(fd, &cmd, sizeof(cmd))) {
      _exit(0);  // parent closed the channel: clean shutdown
    }
    if (cmd.image_size != pool_size || cmd.page_count > pool_pages) {
      _exit(kProtocolViolation);
    }
    pages.resize(cmd.page_count);
    if (!ReadFull(fd, pages.data(), pages.size() * sizeof(uint32_t))) {
      _exit(0);
    }
    // Drops the previous check's footprint, recovery's own writes included
    // (the model marks every line it commits).
    image.Clear();
    for (const uint32_t page : pages) {
      if (page >= pool_pages) {
        _exit(kProtocolViolation);
      }
      const std::span<uint8_t> bytes = image.Page(page);
      if (!ReadFull(fd, bytes.data(), bytes.size())) {
        _exit(0);
      }
      image.MarkWritten(page * kMediumPageSize, bytes.size());
    }
    std::vector<SpanEvent> spans;
    const SandboxVerdict verdict = RunOracleInSandboxProcess(
        factory, &image, verify_digest, emit_spans ? &spans : nullptr);
    for (const SpanEvent& span : spans) {
      if (!channel.Send(SpanMessage(span))) {
        _exit(0);  // parent went away mid-reply
      }
    }
    if (!channel.Send(VerdictMessage(verdict))) {
      _exit(0);
    }
  }
}

// SIGKILLs `pid` (harmless when it already exited) and reaps it.
void KillAndReap(pid_t pid) {
  kill(pid, SIGKILL);
  while (waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
  }
}

}  // namespace

RecoverySandbox::RecoverySandbox(SandboxTargetFactory factory,
                                 size_t image_bytes, uint32_t slots,
                                 SandboxOptions options)
    : factory_(std::move(factory)),
      image_bytes_(image_bytes),
      slots_(slots == 0 ? 1 : slots),
      options_(options),
      workers_(slots_) {
  if (options_.metrics != nullptr) {
    forks_ = options_.metrics->GetCounter("sandbox.forks");
    timeouts_ = options_.metrics->GetCounter("sandbox.timeouts");
    killed_ = options_.metrics->GetCounter("sandbox.killed");
    sandbox_us_ = options_.metrics->GetHistogram("recovery.sandbox_us");
  }
  // Eager spawn: the constructor typically runs before the injection
  // worker threads exist, so the initial pool forks from a
  // single-threaded parent.
  for (uint32_t slot = 0; slot < slots_; ++slot) {
    SpawnWorker(slot);
  }
}

RecoverySandbox::~RecoverySandbox() {
  for (uint32_t slot = 0; slot < slots_; ++slot) {
    StopWorker(slot);
    if (workers_[slot].retired >= 0) {
      KillAndReap(workers_[slot].retired);
    }
  }
}

SandboxVerdict RecoverySandbox::Check(uint32_t slot, const PoolMedium& image) {
  SandboxVerdict verdict;
  if (slot >= slots_ || image.size() != image_bytes_) {
    verdict.status = RecoveryStatus::kCrashed;
    verdict.detail = "sandbox: bad slot or image size";
    return verdict;
  }
  Worker& worker = workers_[slot];
  const auto started = Clock::now();
  if (worker.pid < 0) {
    SpawnWorker(slot);
  }
  if (worker.pid < 0 || !SendImage(worker.channel->fd(), image)) {
    // Worker died (e.g. OOM-killed between checks) or stopped reading:
    // replace it and retry once on a fresh worker.
    StopWorker(slot);
    SpawnWorker(slot);
    if (worker.pid < 0 || !SendImage(worker.channel->fd(), image)) {
      StopWorker(slot);
      verdict.status = RecoveryStatus::kCrashed;
      verdict.detail = "sandbox: worker unavailable";
      return verdict;
    }
  }
  // The deadline and the span rebase start at the dispatch.
  const auto dispatched = Clock::now();
  const uint64_t dispatched_us =
      options_.tracer != nullptr ? options_.tracer->NowMicros() : 0;
  bool survived = false;
  std::vector<SpanEvent> spans;
  verdict = AwaitVerdict(
      worker.channel.get(), worker.pid,
      dispatched + std::chrono::milliseconds(options_.timeout_ms), &survived,
      options_.tracer != nullptr ? &spans : nullptr);
  RecordChildSpans(&spans, slot, worker.pid, dispatched_us);
  if (!survived) {
    // AwaitVerdict already reaped the pid; the next check respawns.
    worker.channel.reset();
    worker.pid = -1;
  } else if (++worker.served == options_.checks_per_fork) {
    // Quota used up: closing the channel makes the worker exit on its own,
    // off this check's path; the next spawn reaps it.
    worker.channel.reset();
    worker.retired = worker.pid;
    worker.pid = -1;
  }
  if (sandbox_us_ != nullptr) {
    sandbox_us_->Observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              started)
            .count()));
  }
  return verdict;
}

SandboxVerdict RecoverySandbox::AwaitVerdict(FrameChannel* channel, pid_t pid,
                                             Clock::time_point deadline,
                                             bool* worker_survived,
                                             std::vector<SpanEvent>* spans_out) {
  *worker_survived = false;
  int wstatus = 0;
  bool reaped = false;
  for (;;) {
    // A deadline in the past still takes what is readable now, so a thread
    // descheduled past the deadline while the verdict sat in the socket
    // buffer still collects it.
    JsonValue reply;
    const FrameChannel::Receipt got = channel->Receive(
        &reply, std::min(deadline, Clock::now() + kDeathProbe));
    const std::string type =
        got == FrameChannel::Receipt::kMessage ? reply.Str("type") : "";
    if (type == "span") {
      if (spans_out != nullptr) {
        SpanEvent span;
        span.name = reply.Str("name");
        span.start_us = reply.U64("start_us");
        span.duration_us = reply.U64("duration_us");
        spans_out->push_back(std::move(span));
      }
      continue;
    }
    if (type == "verdict") {
      SandboxVerdict verdict;
      verdict.status = static_cast<RecoveryStatus>(reply.U64("status"));
      verdict.detail = reply.Str("detail");
      verdict.recovery_wall_us = reply.U64("wall_us");
      ImageDigest::FromHex(reply.Str("digest"), &verdict.digest);
      *worker_survived = true;
      return verdict;
    }
    if (got == FrameChannel::Receipt::kMessage ||
        got == FrameChannel::Receipt::kCorrupt) {
      // A reply that breaks framing or its CRC (a worker that crashed
      // mid-write, or garbage) or is no reply at all: the process is not
      // trustworthy — kill it and report the crash.
      KillAndReap(pid);
      if (killed_ != nullptr) {
        killed_->Increment();
      }
      SandboxVerdict verdict;
      verdict.status = RecoveryStatus::kCrashed;
      verdict.detail = "sandbox: malformed verdict";
      return verdict;
    }
    if (got == FrameChannel::Receipt::kClosed) {
      break;  // EOF without a verdict
    }
    if (Clock::now() >= deadline) {
      // Deadline: the hang becomes a first-class kTimeout finding.
      KillAndReap(pid);
      if (timeouts_ != nullptr) {
        timeouts_->Increment();
      }
      if (killed_ != nullptr) {
        killed_->Increment();
      }
      SandboxVerdict verdict;
      verdict.status = RecoveryStatus::kTimeout;
      verdict.timed_out = true;
      verdict.signal = SIGKILL;
      verdict.detail = "recovery timed out after " +
                       std::to_string(options_.timeout_ms) + " ms (killed)";
      verdict.recovery_wall_us = uint64_t{options_.timeout_ms} * 1000;
      return verdict;
    }
    // Death probe: EOF can be suppressed when a concurrently forked
    // sibling child still holds a copy of the write end, so also poll the
    // pid directly.
    if (waitpid(pid, &wstatus, WNOHANG) == pid) {
      reaped = true;
      break;
    }
  }

  // The child died (or the channel broke) before delivering a verdict:
  // classify the wait status — fatal signals become kCrashed with the
  // signal as evidence, SIGXCPU becomes kTimeout.
  while (!reaped && waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
  }
  const TerminationClass termination = ClassifyWaitStatus(wstatus);
  SandboxVerdict verdict;
  verdict.status = termination.status;
  verdict.signal = termination.signal;
  verdict.timed_out = termination.timed_out;
  verdict.detail = termination.detail;
  if (termination.timed_out && timeouts_ != nullptr) {
    timeouts_->Increment();
  }
  return verdict;
}

void RecoverySandbox::RecordChildSpans(std::vector<SpanEvent>* spans,
                                       uint32_t slot, pid_t pid,
                                       uint64_t base_us) {
  if (options_.tracer == nullptr || spans == nullptr) {
    return;
  }
  for (SpanEvent& span : *spans) {
    span.category = "recovery-child";
    // Child timestamps are relative to its check start; rebase onto the
    // dispatch point so the spans nest under the parent's injection-run
    // span on the same lane.
    span.start_us += base_us;
    span.tid = slot + 1;
    span.args.emplace_back("worker_pid", std::to_string(pid));
    options_.tracer->Record(std::move(span));
  }
  spans->clear();
}

void RecoverySandbox::SpawnWorker(uint32_t slot) {
  Worker& worker = workers_[slot];
  int sv[2];
  if (socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
    worker.pid = -1;
    return;
  }
  // A footprint larger than the socket buffer blocks the send until the
  // worker reads; bound that by the deadline, so a worker that stopped
  // reading (or died while a sibling holds a leaked copy of its end) fails
  // the send instead of wedging the lane.
  timeval send_timeout{};
  send_timeout.tv_sec = options_.timeout_ms / 1000;
  send_timeout.tv_usec = (options_.timeout_ms % 1000) * 1000;
  setsockopt(sv[0], SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
             sizeof(send_timeout));
  const pid_t pid = fork();
  if (pid < 0) {
    close(sv[0]);
    close(sv[1]);
    worker.pid = -1;
    return;
  }
  if (pid == 0) {
    close(sv[0]);
    // Best-effort: drop the other lanes' channel ends inherited from the
    // parent so their EOF-based death detection stays crisp.
    for (const Worker& other : workers_) {
      if (other.channel != nullptr) {
        close(other.channel->fd());
      }
    }
    // A strict-isolation worker serves one check, so a CPU cap cannot
    // accumulate across checks: it backstops the deadline should the
    // parent die. Longer-lived workers get none.
    const uint32_t cpu_limit_s =
        options_.checks_per_fork == 1
            ? static_cast<uint32_t>(2 + (2 * options_.timeout_ms) / 1000)
            : 0;
    ApplyChildRlimits(options_.address_space_bytes, cpu_limit_s);
    WorkerMain(sv[1], factory_, image_bytes_, options_.verify_digest,
               options_.tracer != nullptr);
  }
  close(sv[1]);
  if (worker.retired >= 0) {
    // After the fork, so the retired worker had that long to exit.
    KillAndReap(worker.retired);
    worker.retired = -1;
  }
  worker.pid = pid;
  worker.channel = std::make_unique<FrameChannel>(sv[0], kReplyMaxPayload);
  worker.served = 0;
  if (forks_ != nullptr) {
    forks_->Increment();
  }
}

void RecoverySandbox::StopWorker(uint32_t slot) {
  Worker& worker = workers_[slot];
  worker.channel.reset();  // EOF: an idle worker exits cleanly
  if (worker.pid < 0) {
    return;
  }
  // Deterministic teardown regardless of worker state; reaping is what
  // guarantees zero zombies.
  KillAndReap(worker.pid);
  worker.pid = -1;
  worker.served = 0;
}

}  // namespace mumak
