// Fleet campaign scheduler (src/fleet): shards the replay injection
// schedule across forked worker processes and merges their verdict streams
// into a report byte-identical to a single-process run. See docs/fleet.md
// for the architecture and the failure matrix.

#ifndef MUMAK_SRC_FLEET_SCHEDULER_H_
#define MUMAK_SRC_FLEET_SCHEDULER_H_

#include "src/core/fault_injection.h"
#include "src/fleet/fleet.h"

namespace mumak {

// Drop-in replacement for FaultInjectionEngine::InjectAll when
// config.workers > 1: a process driver of the engine's injection pipeline
// (src/core/injection_pipeline.h). It plans the campaign exactly as
// InjectAll does, forks (or accepts over TCP) config.workers processes that
// run the pipeline's range worker over MFL1 (src/fleet/worker.h), moves
// ranges to them (work stealing from slow shards, heartbeat/timeout death
// detection with re-queue of the lost range), records each verdict on
// receipt through the budget gate, and folds the verdicts into the report
// with the pipeline's seq-ordered merge — byte-identical to a
// single-process run at any worker count. Requires Profile() with the
// replay strategy on `engine`. If every worker dies, the remaining ranges
// run inline in this process through the same range worker — a fleet
// degrades to the single-process pipeline, never to a lost campaign.
Report RunFleetCampaign(FaultInjectionEngine* engine, FailurePointTree* tree,
                        FaultInjectionStats* stats, const FleetConfig& config);

}  // namespace mumak

#endif  // MUMAK_SRC_FLEET_SCHEDULER_H_
