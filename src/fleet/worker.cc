#include "src/fleet/worker.h"

#include <chrono>
#include <csignal>
#include <optional>
#include <string>

#include "src/core/injection_pipeline.h"
#include "src/fleet/messages.h"
#include "src/fleet/transport.h"
#include "src/observability/flat_json.h"
#include "src/sandbox/recovery_sandbox.h"

namespace mumak {
namespace fleet {
namespace {

// Heartbeat cadence through stretches with no verdict traffic (long oracle
// runs); the scheduler's death timeout must comfortably exceed this plus
// the sandbox recovery deadline.
constexpr auto kHeartbeatInterval = std::chrono::milliseconds(500);
// Refuse steal requests that would leave either side under this many
// points — splitting single-digit tails thrashes more than it balances.
constexpr size_t kMinStealRemainder = 2;

}  // namespace

void WorkerLoop(FrameChannel* channel, uint32_t worker_id,
                const WorkerEnv& env, ImageSource* images) {
  ::signal(SIGPIPE, SIG_IGN);
  const std::vector<ReplayPoint>& schedule = *env.schedule;

  // The worker's own sandbox: forked here, while this process is
  // single-threaded, and slots map 1:1 onto oracle runs, so one slot
  // suffices.
  std::optional<RecoverySandbox> sandbox;
  if (env.sandbox.policy != SandboxPolicy::kInProcess) {
    SandboxOptions sandbox_options = env.sandbox;
    sandbox_options.metrics = nullptr;  // scheduler-owned; not ours
    sandbox_options.tracer = nullptr;
    sandbox.emplace(env.factory, env.pool_size, 1, sandbox_options);
  }
  auto last_send = std::chrono::steady_clock::now();

  auto send_json = [&](const std::string& json) -> bool {
    if (!channel->Send(json)) {
      return false;  // scheduler gone
    }
    last_send = std::chrono::steady_clock::now();
    return true;
  };

  if (!send_json(JsonObject()
                     .Str("type", "hello")
                     .U64("worker", worker_id)
                     .Finish())) {
    return;
  }

  CheckEnv check;
  check.factory = env.factory;
  check.sandbox = sandbox.has_value() ? &*sandbox : nullptr;
  check.cache = env.cache;
  bool connected = true;

  // Between points: drain control traffic (steal requests shrink the
  // range's tail, shutdown stops it) and heartbeat through long oracle
  // gaps.
  auto between_points = [&](size_t i, size_t* end) {
    if (!connected) {
      return PointAction::kStop;  // the last send failed: scheduler gone
    }
    // Whatever is already here, without waiting. Ranges only go to an
    // idle worker, so nothing else arrives mid-range.
    for (;;) {
      JsonValue control;
      const FrameChannel::Receipt got =
          channel->Receive(&control, FrameChannel::Clock::now());
      if (got == FrameChannel::Receipt::kTimeout) {
        break;
      }
      const std::string kind = control.Str("type");
      if (got != FrameChannel::Receipt::kMessage || kind == "shutdown") {
        connected = false;  // scheduler gone, stream corrupt, or told so
        return PointAction::kStop;
      }
      if (kind == "steal") {
        // Give away the upper half of what is left beyond the current
        // point (the thief's cursor advances or restores to its start;
        // this one never goes there).
        const size_t tail = *end - i;
        size_t mid = *end;
        if (tail >= 2 * kMinStealRemainder) {
          mid = i + tail / 2;
        }
        if (!send_json(RangeMessage("stolen", mid, *end))) {
          connected = false;
          return PointAction::kStop;
        }
        *end = mid;
      }
    }
    if (std::chrono::steady_clock::now() - last_send >= kHeartbeatInterval &&
        !send_json(SimpleMessage("heartbeat"))) {
      connected = false;
      return PointAction::kStop;
    }
    return PointAction::kRun;
  };
  auto send_result = [&](size_t i, CheckResult r) {
    if (!send_json(
            VerdictMessage(i, r.verdict, r.fresh ? &r.digest : nullptr))) {
      connected = false;
    }
  };

  while (connected) {
    JsonValue msg;
    if (channel->Receive(&msg, FrameChannel::kNoDeadline) !=
        FrameChannel::Receipt::kMessage) {
      return;  // scheduler died or the stream corrupted; resume takes over
    }
    const std::string type = msg.Str("type");
    if (type == "shutdown") {
      return;
    }
    if (type == "steal") {
      // Idle: nothing to give.
      if (!send_json(RangeMessage("stolen", 0, 0))) {
        return;
      }
      continue;
    }
    if (type != "range") {
      continue;
    }
    const size_t begin = static_cast<size_t>(msg.U64("begin"));
    const size_t end = static_cast<size_t>(msg.U64("end"));
    if (begin < end && end <= schedule.size() &&
        !RunRange(check, schedule, begin, end, images, between_points,
                  send_result)) {
      return;
    }
    if (!connected ||
        !send_json(JsonObject()
                       .Str("type", "done")
                       .U64("collisions", env.cache != nullptr
                                              ? env.cache->collisions()
                                              : 0)
                       .U64("blocks_decoded", images->blocks_decoded())
                       .Finish())) {
      return;
    }
  }
}

void WorkerMain(int fd, uint32_t worker_id, const FaultInjectionEngine& engine,
                const std::vector<ReplayPoint>& schedule,
                VerdictCache* cache) {
  const FaultInjectionOptions& opts = engine.options();
  WorkerEnv env;
  env.factory = engine.factory();
  env.pool_size = engine.profiled_pool_size();
  env.schedule = &schedule;
  env.cache = cache;
  env.sandbox = opts.sandbox;
  ImageSource images(engine.replay_trace(), env.pool_size, opts.image_dedup,
                     opts.seek_checkpoints);
  FrameChannel channel(fd, kFleetMaxPayload);
  WorkerLoop(&channel, worker_id, env, &images);
}

}  // namespace fleet
}  // namespace mumak
