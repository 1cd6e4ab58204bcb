// Process-isolation orchestrator for the recovery oracle: a fork-server
// worker per injection slot, crash-image handoff as the image's footprint
// over the slot's socket, replies as MFL1 span and verdict frames on the
// same socket, parent-enforced deadlines (poll + SIGKILL), and
// signal/exit classification. See docs/sandbox.md for the full design.

#ifndef MUMAK_SRC_SANDBOX_RECOVERY_SANDBOX_H_
#define MUMAK_SRC_SANDBOX_RECOVERY_SANDBOX_H_

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/observability/frame_channel.h"
#include "src/observability/span_tracer.h"
#include "src/pmem/pool_medium.h"
#include "src/sandbox/options.h"

namespace mumak {

// One sandbox per injection campaign. `slots` independent lanes (one per
// injection worker thread) can run Check() concurrently; each lane owns its
// worker process and socket, so no cross-lane locking is needed.
//
// Construct while the parent is still single-threaded when possible: the
// constructor spawns the initial workers eagerly. Respawns (after a crash,
// a timeout or a retirement) fork from whatever thread runs the check;
// glibc >= 2.24 makes malloc in such children safe.
class RecoverySandbox {
 public:
  RecoverySandbox(SandboxTargetFactory factory, size_t image_bytes,
                  uint32_t slots, SandboxOptions options);
  // Shuts the pool down hard: closes command channels, SIGKILLs any
  // remaining worker, and reaps every child (no zombies survive).
  ~RecoverySandbox();

  RecoverySandbox(const RecoverySandbox&) = delete;
  RecoverySandbox& operator=(const RecoverySandbox&) = delete;

  uint32_t slots() const { return slots_; }
  size_t image_bytes() const { return image_bytes_; }
  const SandboxOptions& options() const { return options_; }

  // Runs one oracle check on `slot`: sends `image`'s footprint (page list
  // and page bytes) to the slot's worker, which rebuilds the image in its
  // own medium and recovers there. `image` must be image_bytes() long.
  // Blocks until a verdict, the deadline, or worker death. Thread-safe
  // across distinct slots; a slot serves one check at a time.
  SandboxVerdict Check(uint32_t slot, const PoolMedium& image);

 private:
  struct Worker {
    pid_t pid = -1;
    // Parent end of the worker's socketpair: commands go out on its fd,
    // replies come back as frames.
    std::unique_ptr<FrameChannel> channel;
    uint64_t served = 0;  // checks since the fork (retirement counter)
    // A worker retired at its quota: its channel is closed, so it exits on
    // its own; killed (if still alive) and reaped at the next spawn.
    pid_t retired = -1;
  };

  // Collects a verdict from `channel` within the deadline; on timeout,
  // abnormal death or a malformed reply, kills/reaps `pid` and classifies.
  // `*worker_survived` is true when a verdict arrived (the worker is then
  // left running). Span frames preceding the verdict are appended to
  // `spans_out` (may be null to discard them).
  SandboxVerdict AwaitVerdict(FrameChannel* channel, pid_t pid,
                              std::chrono::steady_clock::time_point deadline,
                              bool* worker_survived,
                              std::vector<SpanEvent>* spans_out);
  // Grafts child-reported spans into options_.tracer: rebased onto the
  // dispatch timestamp, lane `slot` + 1, tagged with the worker pid.
  void RecordChildSpans(std::vector<SpanEvent>* spans, uint32_t slot,
                        pid_t pid, uint64_t base_us);

  void SpawnWorker(uint32_t slot);
  // Kills (when still alive) and reaps slot's worker, closing its channel.
  void StopWorker(uint32_t slot);

  SandboxTargetFactory factory_;
  size_t image_bytes_;
  uint32_t slots_;
  SandboxOptions options_;
  std::vector<Worker> workers_;  // one per slot

  // Resolved once; null when no registry was provided.
  Counter* forks_ = nullptr;
  Counter* timeouts_ = nullptr;
  Counter* killed_ = nullptr;
  Histogram* sandbox_us_ = nullptr;
};

}  // namespace mumak

#endif  // MUMAK_SRC_SANDBOX_RECOVERY_SANDBOX_H_
