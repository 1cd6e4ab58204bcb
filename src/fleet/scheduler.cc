#include "src/fleet/scheduler.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/injection_pipeline.h"
#include "src/fleet/bootstrap.h"
#include "src/fleet/messages.h"
#include "src/fleet/transport.h"
#include "src/fleet/worker.h"
#include "src/instrument/trace.h"
#include "src/observability/flat_json.h"
#include "src/observability/frame_channel.h"

namespace mumak {
namespace {

using Clock = std::chrono::steady_clock;

// Don't bother stealing from (or splitting) tails smaller than this.
constexpr size_t kMinStealTail = 4;

// How long the scheduler gives a dialing peer to complete its handshake
// before giving the accept slot back to the accept loop.
constexpr int kHandshakeTimeoutMs = 5000;

// One worker lane, behind a FrameChannel: a forked child (pid >= 0, one
// end of a socketpair) or a stateless remote worker (pid < 0, a TCP
// connection). Everything the scheduler does with a lane — framing,
// decoding, death detection, salvage — goes through the channel, which is
// what keeps stealing/re-queue/merge identical across both kinds.
struct WorkerState {
  std::unique_ptr<FrameChannel> channel;
  pid_t pid = -1;  // -1 = remote: death is connection loss, not SIGCHLD
  bool alive = false;
  bool idle = true;
  bool steal_outstanding = false;
  size_t begin = 0;
  size_t end = 0;
  // Next schedule index this worker has not delivered — verdicts arrive in
  // index order per range, so on death [next_index, end) is exactly what
  // was lost (a point processed but torn mid-frame re-runs elsewhere; the
  // oracle is deterministic, so the re-run verdict is identical).
  size_t next_index = 0;
  uint64_t verdicts = 0;
  uint64_t collisions = 0;
  uint64_t blocks_decoded = 0;  // trace blocks its replay cursor decoded
  Clock::time_point last_heard;
};

}  // namespace

Report RunFleetCampaign(FaultInjectionEngine* engine, FailurePointTree* tree,
                        FaultInjectionStats* stats,
                        const FleetConfig& config) {
  const FaultInjectionOptions& opts = engine->options();
  MetricsRegistry* metrics = opts.metrics;
  auto gauge = [&](const char* name, uint64_t value) {
    if (metrics != nullptr) {
      metrics->GetGauge(name)->Set(value);
    }
  };
  auto count = [&](const char* name, uint64_t by = 1) {
    if (metrics != nullptr && by != 0) {
      metrics->GetCounter(name)->Increment(by);
    }
  };

  // Plan, Record and Merge are the engine's injection pipeline
  // (src/core/injection_pipeline.h); this file only moves ranges and
  // verdicts between processes. The campaign's verdict cache holds the
  // loaded entries (forked workers inherit them, TCP workers are shipped
  // them) and every fresh verdict, the workers' sent with their digest.
  InjectionCampaign campaign(engine, tree, stats, config.workers,
                             config.shards);
  const std::vector<ReplayPoint>& schedule = campaign.points();
  VerdictCache* cache = campaign.cache();
  const uint32_t workers = campaign.lanes();
  std::deque<CheckRange> queue(campaign.ranges().begin(),
                               campaign.ranges().end());
  gauge("fleet.workers", workers);
  gauge("fleet.shards", queue.size());

  // Receipt is the fleet's dispatch point: a verdict is filed only if the
  // budget gate grants it a check, so --budget-checks stops at exactly its
  // count. Re-deliveries of a filed index (a re-queued range) are ignored
  // before they reach the gate.
  bool exhausted = false;
  auto deliver = [&](uint32_t worker_index, size_t index, JournalVerdict v) {
    if (index >= schedule.size() || campaign.recorded(index)) {
      return;
    }
    if (!campaign.Reserve()) {
      exhausted = true;
      return;
    }
    campaign.Record(index, std::move(v), worker_index);
  };

  std::vector<WorkerState> fleet(workers);
  size_t alive_count = 0;
  bool test_killed = false;

  auto handle_message = [&](uint32_t w, JsonValue msg) {
    WorkerState& ws = fleet[w];
    ws.last_heard = Clock::now();
    const std::string type = msg.Str("type");
    if (type == "verdict") {
      const size_t index = static_cast<size_t>(msg.U64("index"));
      std::optional<ImageDigest> digest;
      JournalVerdict verdict = ReadVerdictFields(msg, &digest);
      if (digest.has_value() && cache != nullptr) {
        // A fresh verdict, cached before Record stamps its location.
        cache->Insert(*digest, verdict, nullptr, 0);
      }
      deliver(w, index, std::move(verdict));
      if (index >= ws.next_index) {
        ws.next_index = index + 1;
      }
      ++ws.verdicts;
      if (config.kill_worker_after > 0 && w == 0 && !test_killed &&
          ws.alive && ws.verdicts >= config.kill_worker_after) {
        // Fault-tolerance hook (--fleet-kill-after): kill worker 0
        // mid-flight — SIGKILL for a forked child, a severed connection
        // for a remote worker. Either way the normal death path notices,
        // reaps the lane and re-queues its unfinished range.
        test_killed = true;
        if (ws.pid >= 0) {
          ::kill(ws.pid, SIGKILL);
        } else if (ws.channel != nullptr && ws.channel->ok()) {
          ::shutdown(ws.channel->fd(), SHUT_RDWR);
        }
      }
    } else if (type == "stolen") {
      ws.steal_outstanding = false;
      const size_t b = static_cast<size_t>(msg.U64("begin"));
      const size_t e = static_cast<size_t>(msg.U64("end"));
      if (b < e && e <= schedule.size()) {
        ws.end = b;
        queue.push_back({b, e});
      }
    } else if (type == "done") {
      ws.idle = true;
      ws.steal_outstanding = false;
      ws.collisions = msg.U64("collisions");
      ws.blocks_decoded = msg.U64("blocks_decoded");
    } else if (type == "heartbeat") {
      count("fleet.heartbeats");
    }
    // "hello" (and anything unknown): liveness only.
  };

  // Hands every message worker `w` has sent so far to handle_message.
  // False when the worker hung up or its stream is corrupt (treated as
  // worker death).
  auto drain = [&](uint32_t w) {
    for (;;) {
      JsonValue msg;
      switch (fleet[w].channel->Receive(&msg, Clock::now())) {
        case FrameChannel::Receipt::kMessage:
          handle_message(w, std::move(msg));
          continue;
        case FrameChannel::Receipt::kTimeout:
          return true;
        default:
          return false;
      }
    }
  };

  auto reap = [&](uint32_t w) {
    WorkerState& ws = fleet[w];
    if (!ws.alive) {
      return;
    }
    // Salvage the intact frames the dying worker flushed; a torn tail is
    // discarded (same prefix discipline as the MJN1 journal reader).
    drain(w);
    if (ws.pid >= 0) {
      ::kill(ws.pid, SIGKILL);
      int status = 0;
      ::waitpid(ws.pid, &status, 0);
    }
    ws.channel->Close();
    ws.alive = false;
    --alive_count;
    count("fleet.worker_deaths");
    if (!ws.idle && ws.next_index < ws.end) {
      queue.push_back({ws.next_index, ws.end});
      count("fleet.requeued", ws.end - ws.next_index);
    }
    ws.idle = true;
  };

  auto assign = [&] {
    for (WorkerState& ws : fleet) {
      if (queue.empty()) {
        break;
      }
      if (!ws.alive || !ws.idle) {
        continue;
      }
      const CheckRange r = queue.front();
      if (!ws.channel->Send(fleet::RangeMessage("range", r.begin, r.end))) {
        continue;  // send failed: the poll loop will reap this worker
      }
      queue.pop_front();
      ws.idle = false;
      ws.begin = r.begin;
      ws.end = r.end;
      ws.next_index = r.begin;
    }
    if (!queue.empty() || campaign.recorded_count() >= schedule.size()) {
      return;
    }
    // Work stealing: each idle worker raids the busiest shard (largest
    // unfinished tail), one outstanding steal per victim. The victim
    // splits its tail and the stolen range cycles through the queue back
    // to an idle worker.
    for (WorkerState& thief : fleet) {
      if (!thief.alive || !thief.idle) {
        continue;
      }
      WorkerState* victim = nullptr;
      size_t best = 0;
      for (WorkerState& v : fleet) {
        if (!v.alive || v.idle || v.steal_outstanding) {
          continue;
        }
        const size_t tail = v.end > v.next_index ? v.end - v.next_index : 0;
        if (tail >= kMinStealTail && tail > best) {
          victim = &v;
          best = tail;
        }
      }
      if (victim == nullptr) {
        break;
      }
      if (victim->channel->Send(fleet::SimpleMessage("steal"))) {
        victim->steal_outstanding = true;
        count("fleet.steals");
      }
    }
  };

  // --- bring the fleet up ------------------------------------------------
  const bool tcp_mode = config.listen_fd >= 0 || !config.listen.empty();
  if (tcp_mode && !schedule.empty()) {
    // TCP mode: accept up to `workers` stateless remote workers within the
    // accept window, handshake each, and ship it the campaign artifacts.
    // Lanes still empty when the window closes just never join.
    int listener = config.listen_fd;
    if (listener < 0) {
      std::string error;
      listener = fleet::TcpListen(config.listen, &error);
      if (listener < 0) {
        std::fprintf(stderr, "mumak: fleet: %s\n", error.c_str());
      }
    }
    if (listener >= 0) {
      fleet::BootstrapArtifacts artifacts;
      artifacts.target_spec = config.target_spec;
      // The profile's stream, byte for byte: workers validate it once.
      const std::vector<uint8_t>& trace = engine->replay_trace().bytes();
      artifacts.trace_v3.assign(trace.begin(), trace.end());
      artifacts.schedule_seqs.reserve(schedule.size());
      for (const ReplayPoint& point : schedule) {
        artifacts.schedule_seqs.push_back(point.seq);
      }
      artifacts.pool_size = engine->profiled_pool_size();
      artifacts.image_dedup = opts.image_dedup;
      artifacts.verify_dedup = opts.verify_dedup;
      artifacts.seek_checkpoints = opts.seek_checkpoints;
      artifacts.sandbox = opts.sandbox;
      if (cache != nullptr) {
        artifacts.cache_entries = cache->LoadedEntries();
      }
      if (artifacts.target_spec.empty()) {
        std::fprintf(stderr,
                     "mumak: fleet: TCP mode without a target spec; remote "
                     "workers cannot bootstrap\n");
      }
      const auto accept_deadline =
          Clock::now() +
          std::chrono::milliseconds(std::max<uint32_t>(
              config.accept_timeout_ms, 100));
      uint32_t lane = 0;
      while (lane < workers && !artifacts.target_spec.empty()) {
        const auto now = Clock::now();
        if (now >= accept_deadline) {
          break;
        }
        pollfd pfd = {listener, POLLIN, 0};
        const int wait_ms = static_cast<int>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                accept_deadline - now)
                .count());
        const int ready = ::poll(&pfd, 1, std::max(wait_ms, 1));
        if (ready < 0 && errno != EINTR) {
          break;
        }
        if (ready <= 0) {
          continue;
        }
        std::unique_ptr<FrameChannel> channel = fleet::TcpAccept(listener);
        if (channel == nullptr) {
          continue;
        }
        fleet::FleetHandshake peer;
        std::string error;
        if (!fleet::ReadHandshake(channel.get(), kHandshakeTimeoutMs,
                                  &peer, &error) ||
            peer.proto != fleet::kFleetProtoVersion ||
            peer.role != "worker") {
          std::fprintf(stderr, "mumak: fleet: rejected connection: %s\n",
                       error.empty() ? "incompatible handshake"
                                     : error.c_str());
          continue;
        }
        fleet::FleetHandshake ours;
        ours.proto = fleet::kFleetProtoVersion;
        ours.role = "scheduler";
        ours.worker = lane;
        ours.fingerprint =
            engine->fingerprint_ready() ? engine->trace_fingerprint() : 0;
        if (!channel->Send(fleet::HandshakeMessage(ours)) ||
            !fleet::ShipBootstrap(channel.get(), artifacts)) {
          continue;  // dropped mid-bootstrap: the lane stays empty
        }
        WorkerState& ws = fleet[lane];
        ws.channel = std::move(channel);
        ws.pid = -1;
        ws.alive = true;
        ws.last_heard = Clock::now();
        ++alive_count;
        count("fleet.remote_workers");
        ++lane;
      }
      if (config.listen_fd < 0) {
        ::close(listener);
      }
      if (lane == 0) {
        std::fprintf(stderr,
                     "mumak: fleet: no remote workers connected within "
                     "%u ms; running inline\n",
                     config.accept_timeout_ms);
      }
    }
  } else if (!schedule.empty()) {
    // Fork mode: spawn workers that inherit the campaign state
    // copy-on-write.
    std::vector<int> parent_fds;
    for (uint32_t w = 0; w < workers; ++w) {
      int fds[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
        std::fprintf(stderr, "mumak: fleet: socketpair: %s\n",
                     std::strerror(errno));
        break;
      }
      std::fflush(stdout);
      std::fflush(stderr);
      const pid_t pid = ::fork();
      if (pid < 0) {
        std::fprintf(stderr, "mumak: fleet: fork: %s\n",
                     std::strerror(errno));
        ::close(fds[0]);
        ::close(fds[1]);
        break;
      }
      if (pid == 0) {
        // Child: drop the scheduler-side ends (its own and every earlier
        // sibling's — inherited copies would keep those streams from ever
        // reporting EOF) and run the worker loop over everything Profile()
        // built, inherited copy-on-write. _exit: never unwind into the
        // parent's journal writer/stdio/atexit state.
        ::close(fds[0]);
        for (const int other : parent_fds) {
          ::close(other);
        }
        fleet::WorkerMain(fds[1], w, *engine, schedule, cache);
        ::_exit(0);
      }
      ::close(fds[1]);
      parent_fds.push_back(fds[0]);
      WorkerState& ws = fleet[w];
      ws.pid = pid;
      ws.channel =
          std::make_unique<FrameChannel>(fds[0], fleet::kFleetMaxPayload);
      ws.alive = true;
      ws.last_heard = Clock::now();
      ++alive_count;
    }
  }

  const auto heartbeat_timeout = std::chrono::milliseconds(
      std::max<uint32_t>(config.heartbeat_timeout_ms, 100));

  // --- event loop -------------------------------------------------------
  assign();
  while (!exhausted && campaign.recorded_count() < schedule.size() &&
         alive_count > 0) {
    if (campaign.Expired()) {
      exhausted = true;
      break;
    }
    std::vector<pollfd> pfds;
    std::vector<uint32_t> owner;
    for (uint32_t w = 0; w < workers; ++w) {
      if (fleet[w].alive && fleet[w].channel->ok()) {
        pfds.push_back({fleet[w].channel->fd(), POLLIN, 0});
        owner.push_back(w);
      }
    }
    const int ready = ::poll(pfds.data(), pfds.size(), 100);
    if (ready < 0 && errno != EINTR) {
      break;
    }
    for (size_t p = 0; p < pfds.size(); ++p) {
      const uint32_t w = owner[p];
      // EOF, a hard error or a corrupt stream: the worker is gone.
      if (fleet[w].alive && pfds[p].revents != 0 && !drain(w)) {
        reap(w);
      }
    }
    // Heartbeat/timeout death detection: a worker that is neither
    // delivering verdicts nor heartbeating is wedged or gone.
    const auto now = Clock::now();
    for (uint32_t w = 0; w < workers; ++w) {
      if (fleet[w].alive && now - fleet[w].last_heard > heartbeat_timeout) {
        reap(w);
      }
    }
    assign();
  }

  // --- shut the fleet down ---------------------------------------------
  for (uint32_t w = 0; w < workers; ++w) {
    WorkerState& ws = fleet[w];
    if (!ws.alive) {
      continue;
    }
    ws.channel->Send(fleet::SimpleMessage("shutdown"));
    if (ws.pid >= 0) {
      ::kill(ws.pid, SIGKILL);
      int status = 0;
      ::waitpid(ws.pid, &status, 0);
    }
    ws.channel->Close();
    ws.alive = false;
    --alive_count;
  }

  // --- inline fallback ---------------------------------------------------
  // Every worker died (or none could be forked/accepted) with ranges still
  // queued: finish them in this process through the same range worker. A
  // zero-worker fleet is just the single-process pipeline — the campaign
  // completes either way.
  uint64_t blocks_decoded = 0;  // trace blocks decoded, here and by workers
  if (!exhausted && campaign.recorded_count() < schedule.size() &&
      !queue.empty()) {
    std::fprintf(stderr,
                 "mumak: fleet: no workers left; finishing %zu range(s) "
                 "inline\n",
                 queue.size());
    std::optional<RecoverySandbox> sandbox;
    if (opts.sandbox.policy != SandboxPolicy::kInProcess) {
      SandboxOptions sandbox_options = opts.sandbox;
      sandbox_options.metrics = opts.metrics;
      sandbox_options.tracer = opts.tracer;
      sandbox.emplace(engine->factory(), engine->profiled_pool_size(), 1,
                      sandbox_options);
    }
    const CheckEnv env =
        campaign.MakeEnv(workers, sandbox.has_value() ? &*sandbox : nullptr);
    ImageSource source(engine->replay_trace(), engine->profiled_pool_size(),
                       opts.image_dedup, opts.seek_checkpoints);
    while (!queue.empty() && !exhausted) {
      const CheckRange r = queue.front();
      queue.pop_front();
      exhausted = !RunRange(
          env, schedule, r.begin, r.end, &source,
          [&](size_t i, size_t*) {
            if (campaign.recorded(i)) {
              return PointAction::kSkip;  // delivered before its worker died
            }
            return campaign.Reserve() ? PointAction::kRun : PointAction::kStop;
          },
          [&](size_t i, CheckResult result) {
            campaign.Record(i, std::move(result.verdict), workers);
          });
    }
    blocks_decoded += source.blocks_decoded();
  }

  // --- deterministic merge ----------------------------------------------
  // Fleet and resumed verdicts fold through the pipeline's seq-ordered
  // first-wins merge, so the report is byte-identical to a single-process
  // run at any worker count, over fork or TCP transports alike.
  uint64_t worker_collisions = 0;
  for (const WorkerState& ws : fleet) {
    worker_collisions += ws.collisions;
    blocks_decoded += ws.blocks_decoded;
  }
  count("inject.trace_blocks_decoded", blocks_decoded);
  return campaign.Finish(worker_collisions);
}

}  // namespace mumak
