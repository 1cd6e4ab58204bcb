// Fleet campaign configuration (src/fleet): sharding one campaign's replay
// injection schedule across worker *processes*. Kept dependency-free so
// MumakOptions can embed it without pulling the scheduler into every
// translation unit.

#ifndef MUMAK_SRC_FLEET_FLEET_H_
#define MUMAK_SRC_FLEET_FLEET_H_

#include <cstdint>
#include <string>

namespace mumak {

struct FleetConfig {
  // Worker processes to fork for the injection phase. 0 or 1 = no fleet
  // (InjectAll's in-process drivers run instead). Forcing the replay
  // strategy: fleet workers synthesize crash images from the profiled
  // trace; re-execution is not sharded across processes (every worker
  // would pay a full instrumented execution, prefix included).
  uint32_t workers = 0;
  // Shards to split the planned checks into: contiguous slices of the
  // dispatch order (seq ranges unless --rank), so each worker's cursor
  // mostly advances forward, and a shard behind it resumes from one of the
  // cursor's own checkpoints. 0 = workers * 4 (enough surplus for stealing
  // to matter; one shard for a single worker).
  uint32_t shards = 0;
  // A worker that neither delivers a frame nor heartbeats for this long is
  // presumed dead: SIGKILLed, reaped, and its unfinished range re-queued.
  // Must comfortably exceed the slowest single oracle run (the sandbox
  // recovery deadline bounds that when sandboxing is on).
  uint32_t heartbeat_timeout_ms = 10000;
  // Fault-tolerance test hook (--fleet-kill-after): kill worker 0 after
  // the scheduler has accepted this many of its verdicts — SIGKILL for a
  // forked worker, a severed connection for a remote one. 0 = disabled.
  uint64_t kill_worker_after = 0;
  // TCP mode (--fleet-listen "host:port"): instead of forking, the
  // scheduler listens here and accepts up to `workers` stateless remote
  // workers (`mumak worker --connect`), shipping each the trace and
  // campaign options over MFL1 (src/fleet/bootstrap.h). Empty = fork mode.
  std::string listen;
  // Test hook: an already-bound listener fd (overrides `listen`; lets a
  // test bind port 0 and learn the port before the campaign starts). The
  // scheduler closes it when the accept window ends. -1 = unused.
  int listen_fd = -1;
  // How long the scheduler waits for remote workers to connect. Lanes
  // still empty when it expires just never join (zero accepted workers
  // degrades to the inline single-process path).
  uint32_t accept_timeout_ms = 15000;
  // EncodeTargetSpec JSON (src/fleet/bootstrap.h) describing the campaign
  // target, shipped to remote workers so they can rebuild the recovery
  // oracle. Required in TCP mode; unused in fork mode.
  std::string target_spec;
};

}  // namespace mumak

#endif  // MUMAK_SRC_FLEET_FLEET_H_
