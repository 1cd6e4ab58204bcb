// Fleet injection worker (src/fleet): the per-process half of the campaign
// scheduler. Two bootstrap flavours feed the same range-serving loop:
//
//  - forked (WorkerMain): spawned by the scheduler *after* Profile(), so
//    the replay trace, the seq-sorted schedule and the campaign's verdict
//    cache (the entries loaded from --verdict-cache) arrive copy-on-write.
//  - stateless (`mumak worker --connect`, src/fleet/bootstrap.h): a fresh
//    process on any host receives the v3 trace, the schedule seqs, the
//    loaded cache entries and the campaign options over MFL1 and
//    reconstructs the same pipeline from the shipped artifacts.
//
// Either way one replay cursor serves every range the worker is handed:
// it runs forward from zero, taking its own checkpoints as it passes them,
// and restores one when a range (stolen or re-queued) lies behind it.
// The worker speaks MFL1 over one FrameChannel: receives
// contiguous schedule ranges, emits one verdict frame per point (in index
// order), offers the tail of its range when asked to be stolen from, and
// heartbeats through long oracle gaps. Workers never touch the failure
// point tree — verdict locations are stamped by the scheduler, which is
// what lets a stateless worker skip the tree (its frame names resolve via
// a process-global registry a fresh process does not have).

#ifndef MUMAK_SRC_FLEET_WORKER_H_
#define MUMAK_SRC_FLEET_WORKER_H_

#include <cstdint>
#include <vector>

#include "src/core/fault_injection.h"
#include "src/core/injection_pipeline.h"
#include "src/core/verdict_cache.h"
#include "src/fleet/transport.h"

namespace mumak {
namespace fleet {

// Everything the range-serving loop needs, assembled by either bootstrap
// flavour. Pointers reference state owned by the caller for the loop's
// lifetime.
struct WorkerEnv {
  TargetFactory factory;
  size_t pool_size = 0;
  const std::vector<ReplayPoint>* schedule = nullptr;
  // This process's verdict cache; null when image dedup is off.
  VerdictCache* cache = nullptr;
  // The worker forks its own sandbox (single-threaded, one slot) from
  // these options; metrics/tracer are nulled — they belong to the
  // scheduler process.
  SandboxOptions sandbox;
};

// The transport-agnostic range-serving loop: hello, then ranges/steals/
// shutdown until the scheduler says stop, the connection drops, or the
// stream corrupts. Each range runs through the engine's range worker
// (RunRange, src/core/injection_pipeline.h) over `images`, a replay image
// source, and `env.cache`; between points it serves steal requests,
// heartbeats and shutdown. A fresh verdict's frame carries its image
// digest. Cache hits follow the pipeline's trust rule (a verdict first
// checked at a later seq is not attributed backwards), so out-of-order
// ranges after a steal or a re-queue keep the merged report deterministic.
void WorkerLoop(FrameChannel* channel, uint32_t worker_id,
                const WorkerEnv& env, ImageSource* images);

// Forked-worker entry point: builds a WorkerEnv from the engine state and
// the campaign's `cache` (null when image dedup is off), inherited
// copy-on-write, and runs WorkerLoop over `fd`. The caller (the
// fork site) must _exit() immediately after this returns — the child
// shares the parent's journal fd, metrics and stdio buffers and must not
// run exit handlers or flush inherited state.
void WorkerMain(int fd, uint32_t worker_id, const FaultInjectionEngine& engine,
                const std::vector<ReplayPoint>& schedule,
                VerdictCache* cache);

}  // namespace fleet
}  // namespace mumak

#endif  // MUMAK_SRC_FLEET_WORKER_H_
