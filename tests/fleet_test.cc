// Fleet campaign scheduler (src/fleet). Layers under test:
//   1. MFL1 framing — round trip, incremental feed, sticky corruption;
//   2. transport handshake — the length-limited first frame of a TCP
//      connection round-trips, and the frames behind it stay queued;
//   3. message codecs — verdicts and cache inserts survive the JSON wire
//      (64-bit digests travel as hex strings, elided fields default) — and
//      bootstrap validation: a worker refuses a pool size or trace store
//      it cannot replay safely;
//   4. determinism — RunFleetCampaign's merged report is byte-identical
//      to a single-process InjectAll run at any worker count, with work
//      stealing forced, with a worker SIGKILLed mid-flight, composed with
//      --resume-journal, and over TCP with stateless remote workers
//      (every one of them delivering verdicts, and exactly one lost when
//      its connection is severed mid-campaign);
//   5. the verdict-cache epilogue — fleet campaigns populate the same
//      persistent cache a single-process run would;
//   6. the serve daemon — cache-key normalization, the job queue
//      (concurrency cap, drain, cancel-on-disconnect), and warm-cache
//      sharing across same-fingerprint submissions.

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/fault_injection.h"
#include "src/fleet/bootstrap.h"
#include "src/fleet/messages.h"
#include "src/fleet/scheduler.h"
#include "src/fleet/serve.h"
#include "src/fleet/transport.h"
#include "src/instrument/trace.h"
#include "src/observability/flat_json.h"
#include "src/observability/frame_channel.h"
#include "src/observability/journal.h"
#include "src/observability/metrics.h"
#include "src/targets/target.h"

namespace mumak {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TargetFactory Factory(const std::string& name, const TargetOptions& options) {
  return [name, options] { return CreateTarget(name, options); };
}

// -- 1. MFL1 framing ---------------------------------------------------------

TEST(FleetWire, RoundTripsFrames) {
  FrameDecoder decoder(fleet::kFleetMaxPayload);
  const std::string a = EncodeFrame("{\"type\": \"hello\"}");
  const std::string b = EncodeFrame("{\"type\": \"done\"}");
  decoder.Feed(a.data(), a.size());
  decoder.Feed(b.data(), b.size());
  std::string payload;
  ASSERT_EQ(decoder.Next(&payload), FrameStatus::kOk);
  EXPECT_EQ(payload, "{\"type\": \"hello\"}");
  ASSERT_EQ(decoder.Next(&payload), FrameStatus::kOk);
  EXPECT_EQ(payload, "{\"type\": \"done\"}");
  EXPECT_EQ(decoder.Next(&payload), FrameStatus::kNeedMore);
  EXPECT_FALSE(decoder.corrupt());
}

TEST(FleetWire, ByteAtATimeFeedStillDecodes) {
  FrameDecoder decoder(fleet::kFleetMaxPayload);
  const std::string frame = EncodeFrame("{\"seq\": 12345}");
  std::string payload;
  for (size_t i = 0; i < frame.size(); ++i) {
    EXPECT_EQ(decoder.Next(&payload), FrameStatus::kNeedMore);
    decoder.Feed(frame.data() + i, 1);
  }
  ASSERT_EQ(decoder.Next(&payload), FrameStatus::kOk);
  EXPECT_EQ(payload, "{\"seq\": 12345}");
}

TEST(FleetWire, CorruptionIsSticky) {
  FrameDecoder decoder(fleet::kFleetMaxPayload);
  std::string frame = EncodeFrame("{\"type\": \"verdict\"}");
  frame[frame.size() - 1] ^= 0xff;  // body corruption -> CRC mismatch
  decoder.Feed(frame.data(), frame.size());
  std::string payload;
  EXPECT_EQ(decoder.Next(&payload), FrameStatus::kBadCrc);
  EXPECT_TRUE(decoder.corrupt());
  // Clean bytes after the corruption must not resurrect the stream: a
  // desynchronised reader re-syncing on garbage is how wrong verdicts
  // would get attributed.
  const std::string clean = EncodeFrame("{\"type\": \"done\"}");
  decoder.Feed(clean.data(), clean.size());
  EXPECT_EQ(decoder.Next(&payload), FrameStatus::kBadCrc);
}

// -- 2. Transport handshake --------------------------------------------------

// A channel pair over a socketpair; `a` at the general cap, `b` at `b_cap`
// (a TCP connection starts at the handshake cap).
struct ChannelPair {
  std::unique_ptr<FrameChannel> a;
  std::unique_ptr<FrameChannel> b;
};

ChannelPair MakeChannelPair(uint32_t b_cap = fleet::kFleetMaxPayload) {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  return {std::make_unique<FrameChannel>(fds[0], fleet::kFleetMaxPayload),
          std::make_unique<FrameChannel>(fds[1], b_cap)};
}

// Receives one message from `channel` within `timeout_ms`.
bool ReceiveWithin(FrameChannel* channel, JsonValue* out, int timeout_ms) {
  return channel->Receive(out, FrameChannel::Clock::now() +
                                   std::chrono::milliseconds(timeout_ms)) ==
         FrameChannel::Receipt::kMessage;
}

// The first frame each way on a TCP fleet connection. ReadHandshake must
// parse it and leave the frames that arrived behind it (the scheduler
// pushes the bootstrap sequence immediately after its reply) queued on the
// channel, so the stream continues seamlessly.
TEST(FleetTransport, HandshakeRoundTripsAndSplicesTheRemainder) {
  ChannelPair pair = MakeChannelPair(fleet::kFleetMaxHandshakeBytes);
  fleet::FleetHandshake sent;
  sent.proto = fleet::kFleetProtoVersion;
  sent.role = "scheduler";
  sent.worker = 3;
  sent.fingerprint = 0xfedcba9876543210ull;
  ASSERT_TRUE(pair.a->Send(fleet::HandshakeMessage(sent)));
  // The frame *behind* the handshake must survive.
  ASSERT_TRUE(
      pair.a->Send("{\"type\": \"range\", \"begin\": 1, \"end\": 9}"));

  fleet::FleetHandshake got;
  std::string error;
  ASSERT_TRUE(fleet::ReadHandshake(pair.b.get(), 2000, &got, &error))
      << error;
  EXPECT_EQ(got.proto, sent.proto);
  EXPECT_EQ(got.role, sent.role);
  EXPECT_EQ(got.worker, sent.worker);
  EXPECT_EQ(got.fingerprint, sent.fingerprint);

  JsonValue follow;
  ASSERT_TRUE(ReceiveWithin(pair.b.get(), &follow, 2000));
  EXPECT_EQ(follow.Str("type"), "range");
  EXPECT_EQ(follow.U64("begin"), 1u);
  EXPECT_EQ(follow.U64("end"), 9u);
}

// Once the handshake is in, the channel's cap is the general one — for a
// frame already buffered behind the handshake too.
TEST(FleetTransport, ReadHandshakeRaisesTheCapForTheFramesBehindIt) {
  ChannelPair pair = MakeChannelPair(fleet::kFleetMaxHandshakeBytes);
  fleet::FleetHandshake sent;
  sent.proto = fleet::kFleetProtoVersion;
  sent.role = "scheduler";
  const std::string big(fleet::kFleetMaxHandshakeBytes * 4, 'x');
  ASSERT_TRUE(pair.a->Send(fleet::HandshakeMessage(sent)));
  ASSERT_TRUE(pair.a->Send("{\"type\": \"artifact\", \"data\": \"" + big +
                           "\"}"));
  fleet::FleetHandshake got;
  std::string error;
  ASSERT_TRUE(fleet::ReadHandshake(pair.b.get(), 2000, &got, &error))
      << error;
  JsonValue artifact;
  ASSERT_TRUE(ReceiveWithin(pair.b.get(), &artifact, 2000));
  EXPECT_EQ(artifact.Str("data"), big);
}

TEST(FleetTransport, ReadHandshakeRejectsANonHandshakeFirstFrame) {
  ChannelPair pair = MakeChannelPair(fleet::kFleetMaxHandshakeBytes);
  ASSERT_TRUE(pair.a->Send("{\"type\": \"hello\", \"worker\": 0}"));
  fleet::FleetHandshake got;
  std::string error;
  EXPECT_FALSE(fleet::ReadHandshake(pair.b.get(), 2000, &got, &error));
  EXPECT_FALSE(error.empty());
}

TEST(FleetTransport, ReadHandshakeEnforcesTheLengthCap) {
  // A frame the general 1 MiB protocol would happily carry must be thrown
  // out *before* the handshake completes: an unauthenticated peer does not
  // get to make the scheduler buffer arbitrary data.
  ChannelPair pair = MakeChannelPair(fleet::kFleetMaxHandshakeBytes);
  const std::string big(fleet::kFleetMaxHandshakeBytes * 2, 'x');
  ASSERT_TRUE(
      pair.a->Send("{\"type\": \"handshake\", \"pad\": \"" + big + "\"}"));
  fleet::FleetHandshake got;
  std::string error;
  EXPECT_FALSE(fleet::ReadHandshake(pair.b.get(), 2000, &got, &error));
}

// -- 3. Message codecs -------------------------------------------------------

TEST(FleetMessages, VerdictRoundTripsWithElidedFields) {
  JournalVerdict v;
  v.seq = 987654321;
  v.status = "unrecoverable";
  v.detail = "value lost for key 3 (\"quoted\")";
  v.location = "store pm+0x40 <- put(3)";
  v.signal_name = "SIGSEGV";
  v.timed_out = false;
  v.wall_us = 0;
  v.dedup_of = "";
  v.from_cache = false;
  JsonValue parsed;
  ASSERT_TRUE(JsonParser(fleet::VerdictMessage(17, v)).Parse(&parsed));
  EXPECT_EQ(parsed.U64("index"), 17u);
  const JournalVerdict back = ReadVerdictFields(parsed);
  EXPECT_EQ(back.seq, v.seq);
  EXPECT_EQ(back.status, v.status);
  EXPECT_EQ(back.detail, v.detail);
  EXPECT_EQ(back.location, v.location);
  EXPECT_EQ(back.signal_name, v.signal_name);
  EXPECT_EQ(back.timed_out, v.timed_out);
  EXPECT_EQ(back.wall_us, v.wall_us);
  EXPECT_EQ(back.dedup_of, v.dedup_of);
  EXPECT_EQ(back.from_cache, v.from_cache);
}

// A fresh verdict's frame carries its image digest (both halves beyond a
// double's 53 bits) as hex, exactly; a cache hit's frame carries none.
TEST(FleetMessages, VerdictCarriesTheImageDigestExactly) {
  ImageDigest digest;
  digest.hi = 0xfedcba9876543210ull;
  digest.lo = 0xf123456789abcdefull;
  JournalVerdict v;
  v.seq = 4242;
  v.status = "unrecoverable";
  v.timed_out = true;
  v.wall_us = 777;
  v.detail = "lost tail";
  v.signal_name = "SIGBUS";
  JsonValue parsed;
  ASSERT_TRUE(
      JsonParser(fleet::VerdictMessage(5, v, &digest)).Parse(&parsed));
  std::optional<ImageDigest> digest_back;
  const JournalVerdict back = ReadVerdictFields(parsed, &digest_back);
  ASSERT_TRUE(digest_back.has_value());
  EXPECT_EQ(digest_back->hi, digest.hi);
  EXPECT_EQ(digest_back->lo, digest.lo);
  EXPECT_EQ(back.seq, v.seq);
  EXPECT_EQ(back.status, v.status);
  EXPECT_EQ(back.timed_out, v.timed_out);
  EXPECT_EQ(back.wall_us, v.wall_us);
  EXPECT_EQ(back.detail, v.detail);
  EXPECT_EQ(back.signal_name, v.signal_name);

  JsonValue hit;
  ASSERT_TRUE(JsonParser(fleet::VerdictMessage(5, v)).Parse(&hit));
  ReadVerdictFields(hit, &digest_back);
  EXPECT_FALSE(digest_back.has_value());
}

// -- 3b. Bootstrap validation -------------------------------------------------

// A bootstrap for btree whose trace holds one store of `size` bytes at
// `offset`, claiming a `pool_size`-byte pool.
fleet::BootstrapArtifacts OneStoreBootstrap(uint64_t pool_size,
                                            uint64_t offset, uint32_t size) {
  PmEvent store;
  store.kind = EventKind::kStore;
  store.offset = offset;
  store.size = size;
  const std::vector<uint8_t> payload(size, 0xab);
  store.payload = payload.data();
  TraceStreamWriter writer(/*with_payloads=*/true);
  writer.OnEvent(store);
  const TraceStream stream = writer.Finish();
  fleet::BootstrapArtifacts artifacts;
  artifacts.target_spec = fleet::EncodeTargetSpec("btree", TargetOptions{});
  artifacts.trace_v3.assign(stream.bytes().begin(), stream.bytes().end());
  artifacts.schedule_seqs = {0};
  artifacts.pool_size = pool_size;
  return artifacts;
}

// Ships `artifacts` over a socket pair and receives them as a worker would.
bool ShipAndReceive(const fleet::BootstrapArtifacts& artifacts,
                    std::string* error,
                    fleet::WorkerBootstrap* received = nullptr) {
  ChannelPair pair = MakeChannelPair();
  EXPECT_TRUE(fleet::ShipBootstrap(pair.a.get(), artifacts));
  fleet::WorkerBootstrap boot;
  error->clear();
  return fleet::ReceiveBootstrap(pair.b.get(), received ? received : &boot,
                                 error);
}

uint64_t BtreePoolSize() {
  return CreateTarget("btree", TargetOptions{})->DefaultPoolSize();
}

// The replay cursor writes each payload into the worker's pool and only
// asserts the bounds, so a store reaching past the pool must be refused at
// bootstrap, including one whose offset + size wraps around.
TEST(FleetBootstrap, RejectsAStoreOutsideThePool) {
  const uint64_t pool = BtreePoolSize();
  std::string error;
  ASSERT_TRUE(ShipAndReceive(OneStoreBootstrap(pool, pool - 8, 8), &error))
      << error;
  EXPECT_FALSE(ShipAndReceive(OneStoreBootstrap(pool, pool - 4, 8), &error));
  EXPECT_NE(error.find("offset " + std::to_string(pool - 4)),
            std::string::npos)
      << error;
  EXPECT_FALSE(
      ShipAndReceive(OneStoreBootstrap(pool, ~uint64_t{0} - 2, 8), &error));
  EXPECT_NE(error.find("outside"), std::string::npos) << error;
}

// The sandbox policy travels by its wire value: 0 in-process, 2 the fork
// server. 1 named a policy that no longer exists and is refused.
TEST(FleetBootstrap, SandboxPolicyTravelsByItsWireValue) {
  fleet::BootstrapArtifacts artifacts =
      OneStoreBootstrap(BtreePoolSize(), 0, 8);
  artifacts.sandbox.policy = SandboxPolicy::kForkServer;
  artifacts.sandbox.checks_per_fork = 1;
  fleet::WorkerBootstrap boot;
  std::string error;
  ASSERT_TRUE(ShipAndReceive(artifacts, &error, &boot)) << error;
  EXPECT_EQ(boot.sandbox.policy, SandboxPolicy::kForkServer);
  EXPECT_EQ(boot.sandbox.checks_per_fork, 1u);
  artifacts.sandbox.policy = static_cast<SandboxPolicy>(1);
  EXPECT_FALSE(ShipAndReceive(artifacts, &error));
  EXPECT_NE(error.find("unknown sandbox policy"), std::string::npos)
      << error;
}

// An older scheduler also shipped the range-start seqs it had checkpointed,
// as a "scout" artifact after the schedule. A worker skips an artifact it
// does not know, so that bootstrap still reconstructs.
TEST(FleetBootstrap, AcceptsTheScoutArtifactAnOlderSchedulerSends) {
  const fleet::BootstrapArtifacts artifacts =
      OneStoreBootstrap(BtreePoolSize(), 0, 8);
  int ship[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, ship), 0);
  FrameChannel scheduler(ship[0], fleet::kFleetMaxPayload);
  ChannelPair relay = MakeChannelPair();
  ASSERT_TRUE(fleet::ShipBootstrap(&scheduler, artifacts));

  // Two packed little-endian seqs, spliced in ahead of bootstrap_done.
  const uint8_t seqs[16] = {7, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0};
  const std::string scout = JsonObject()
                                .Str("type", "artifact")
                                .Str("name", "scout")
                                .Bool("last", true)
                                .Str("data", fleet::HexEncode(seqs, 16))
                                .Finish();
  // A tap on the raw bytes: relays every payload, the scout first of all
  // ahead of bootstrap_done.
  FrameDecoder tap(fleet::kFleetMaxPayload);
  for (bool done = false; !done;) {
    std::string payload;
    const FrameStatus status = tap.Next(&payload);
    if (status == FrameStatus::kNeedMore) {
      uint8_t chunk[64 << 10];
      const ssize_t n = ::recv(ship[1], chunk, sizeof(chunk), 0);
      ASSERT_GT(n, 0);
      tap.Feed(chunk, static_cast<size_t>(n));
      continue;
    }
    ASSERT_EQ(status, FrameStatus::kOk);
    if (payload.find("\"bootstrap_done\"") != std::string::npos) {
      ASSERT_TRUE(relay.a->Send(scout));
      done = true;
    }
    ASSERT_TRUE(relay.a->Send(payload));
  }
  ::close(ship[1]);

  fleet::WorkerBootstrap boot;
  std::string error;
  ASSERT_TRUE(fleet::ReceiveBootstrap(relay.b.get(), &boot, &error)) << error;
  EXPECT_EQ(boot.schedule_seqs, artifacts.schedule_seqs);
  EXPECT_EQ(boot.trace.events(), 1u);
  EXPECT_EQ(boot.pool_size, artifacts.pool_size);
}

// A 5000-event store stream in 1000-event blocks, as a btree bootstrap.
fleet::BootstrapArtifacts FiveBlockBootstrap() {
  TraceStreamWriter writer(/*with_payloads=*/true, /*block_events=*/1000);
  for (size_t i = 0; i < 5000; ++i) {
    PmEvent store;
    store.kind = EventKind::kStore;
    store.seq = i;
    store.offset = (i % 512) * 8;
    store.size = 8;
    const uint64_t value = i;
    store.payload = reinterpret_cast<const uint8_t*>(&value);
    writer.OnEvent(store);
  }
  const TraceStream stream = writer.Finish();
  fleet::BootstrapArtifacts artifacts;
  artifacts.target_spec = fleet::EncodeTargetSpec("btree", TargetOptions{});
  artifacts.trace_v3.assign(stream.bytes().begin(), stream.bytes().end());
  artifacts.schedule_seqs = {0};
  artifacts.pool_size = BtreePoolSize();
  return artifacts;
}

// Where block `b`'s frame starts in a valid stream.
uint64_t BlockOffset(const std::string& bytes, size_t b) {
  TraceStream stream;
  EXPECT_TRUE(TraceStream::Parse({bytes.begin(), bytes.end()}, 0, &stream,
                                 nullptr));
  return stream.block(b).file_offset;
}

// The shipped trace is all or nothing: a stream that lost its tail blocks
// or a block's frame, or that claims more events than it holds, fails the
// bootstrap with a message instead of replaying a shorter trace (or
// allocating from the claimed count).
TEST(FleetBootstrap, RejectsAStreamCutAtABlockHeader) {
  fleet::BootstrapArtifacts artifacts = FiveBlockBootstrap();
  std::string error;
  ASSERT_TRUE(ShipAndReceive(artifacts, &error)) << error;
  artifacts.trace_v3.resize(BlockOffset(artifacts.trace_v3, 2));
  EXPECT_FALSE(ShipAndReceive(artifacts, &error));
  EXPECT_NE(error.find("shipped trace"), std::string::npos) << error;
}

TEST(FleetBootstrap, RejectsAStreamWithAFlippedBlockMagic) {
  fleet::BootstrapArtifacts artifacts = FiveBlockBootstrap();
  artifacts.trace_v3[BlockOffset(artifacts.trace_v3, 2)] ^= 0xff;
  std::string error;
  EXPECT_FALSE(ShipAndReceive(artifacts, &error));
  EXPECT_NE(error.find("block 2"), std::string::npos) << error;
}

TEST(FleetBootstrap, RejectsAnEventCountTheBytesCannotHold) {
  fleet::BootstrapArtifacts artifacts = FiveBlockBootstrap();
  const uint64_t huge = uint64_t{1} << 60;
  artifacts.trace_v3.replace(12, sizeof(huge),
                             reinterpret_cast<const char*>(&huge),
                             sizeof(huge));
  std::string error;
  EXPECT_FALSE(ShipAndReceive(artifacts, &error));
  EXPECT_NE(error.find("header counts"), std::string::npos) << error;
}

TEST(FleetBootstrap, RejectsAPoolSizeOtherThanTheTargets) {
  const uint64_t pool = BtreePoolSize();
  std::string error;
  EXPECT_FALSE(ShipAndReceive(OneStoreBootstrap(pool * 2, 0, 8), &error));
  EXPECT_NE(error.find("pool_size " + std::to_string(pool * 2)),
            std::string::npos)
      << error;
}

// -- 4. Determinism ----------------------------------------------------------

struct FleetCase {
  const char* target;
  const char* bug;
};

constexpr FleetCase kCases[] = {
    {"btree", "btree.split_unlogged"},
    {"hashmap_tx", "hashmap_tx.prepend_unlogged"},
    {"fast_fair", "ff.c1_sibling_link_first"},
};

Report SingleProcessReference(const FleetCase& c, const WorkloadSpec& spec,
                              const TargetOptions& options) {
  FaultInjectionOptions fi;
  fi.strategy = InjectionStrategy::kReplay;
  FaultInjectionEngine engine(Factory(c.target, options), spec, fi);
  FailurePointTree tree = engine.Profile();
  FaultInjectionStats stats;
  return engine.InjectAll(&tree, &stats);
}

Report FleetRun(const FleetCase& c, const WorkloadSpec& spec,
                const TargetOptions& options, const FleetConfig& config,
                FaultInjectionStats* stats,
                FaultInjectionOptions fi = FaultInjectionOptions()) {
  fi.strategy = InjectionStrategy::kReplay;
  FaultInjectionEngine engine(Factory(c.target, options), spec, fi);
  FailurePointTree tree = engine.Profile();
  return RunFleetCampaign(&engine, &tree, stats, config);
}

// The headline guarantee: the merged fleet report is byte-identical to the
// single-process run at any worker count (same process here, so even the
// resolved code locations match exactly).
TEST(FleetDeterminism, MatchesSingleProcessAtAnyWorkerCount) {
  for (const FleetCase& c : kCases) {
    SCOPED_TRACE(c.target);
    TargetOptions options;
    options.pmdk_version = PmdkVersion::k16;
    options.bugs = {c.bug};
    WorkloadSpec spec;
    spec.operations = 300;
    spec.key_space = 50;
    const Report reference = SingleProcessReference(c, spec, options);
    ASSERT_GT(reference.BugCount(), 0u) << "bug " << c.bug
                                        << " not triggered";
    for (const uint32_t workers : {2u, 4u, 7u}) {
      SCOPED_TRACE(workers);
      FleetConfig config;
      config.workers = workers;
      FaultInjectionStats stats;
      const Report fleet = FleetRun(c, spec, options, config, &stats);
      EXPECT_EQ(fleet.Render(), reference.Render());
      EXPECT_EQ(fleet.RenderJson(), reference.RenderJson());
      EXPECT_GT(stats.injections, 0u);
      EXPECT_EQ(stats.injections, stats.replayed);
    }
  }
}

// One shard + many workers forces the work-stealing path: every worker
// except the first starts idle and must steal its share.
TEST(FleetDeterminism, WorkStealingPreservesTheReport) {
  const FleetCase c = kCases[0];
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  options.bugs = {c.bug};
  WorkloadSpec spec;
  spec.operations = 300;
  spec.key_space = 50;
  const Report reference = SingleProcessReference(c, spec, options);
  FleetConfig config;
  config.workers = 4;
  config.shards = 1;
  FaultInjectionStats stats;
  const Report fleet = FleetRun(c, spec, options, config, &stats);
  EXPECT_EQ(fleet.Render(), reference.Render());
  EXPECT_EQ(fleet.RenderJson(), reference.RenderJson());
}

// SIGKILLing a worker mid-flight (the --fleet-kill-after hook) must lose
// nothing: the dead worker's unfinished range is re-queued and the merged
// report still matches.
TEST(FleetDeterminism, SurvivesAWorkerSigkill) {
  const FleetCase c = kCases[0];
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  options.bugs = {c.bug};
  WorkloadSpec spec;
  spec.operations = 300;
  spec.key_space = 50;
  const Report reference = SingleProcessReference(c, spec, options);
  FleetConfig config;
  config.workers = 4;
  config.kill_worker_after = 2;
  FaultInjectionStats stats;
  const Report fleet = FleetRun(c, spec, options, config, &stats);
  EXPECT_EQ(fleet.Render(), reference.Render());
  EXPECT_EQ(fleet.RenderJson(), reference.RenderJson());
}

// Fleet campaigns compose with --resume-journal: a journaled run cancelled
// partway, resumed under the fleet, matches the uninterrupted reference.
TEST(FleetDeterminism, ComposesWithJournalResume) {
  const FleetCase c = kCases[0];
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  options.bugs = {c.bug};
  WorkloadSpec spec;
  spec.operations = 300;
  spec.key_space = 50;
  const Report reference = SingleProcessReference(c, spec, options);

  const std::string path = TempPath("fleet_resume.mjn");
  std::string error;
  {
    auto journal = CampaignJournal::Create(path, &error);
    ASSERT_NE(journal, nullptr) << error;
    FaultInjectionOptions first;
    first.strategy = InjectionStrategy::kReplay;
    first.journal = journal.get();
    first.budget_checks = 7;
    FaultInjectionEngine engine(Factory(c.target, options), spec, first);
    FailurePointTree tree = engine.Profile();
    FaultInjectionStats stats;
    engine.InjectAll(&tree, &stats);
    journal->Close();
  }
  const JournalReplay replay = ReplayJournal(path);
  ASSERT_TRUE(replay.ok) << replay.error;
  ASSERT_FALSE(replay.verdicts.empty());

  FaultInjectionOptions second;
  second.resume = &replay;
  FleetConfig config;
  config.workers = 3;
  FaultInjectionStats stats;
  const Report fleet =
      FleetRun(c, spec, options, config, &stats, second);
  EXPECT_EQ(stats.resumed, replay.verdicts.size());
  EXPECT_EQ(fleet.Render(), reference.Render());
  EXPECT_EQ(fleet.RenderJson(), reference.RenderJson());
  std::remove(path.c_str());
}

// -- 4b. TCP remote workers --------------------------------------------------

// Forks `count` stateless workers that dial the listener's port. Each
// child closes the inherited listener fd first — otherwise the port would
// stay bound after the scheduler closes its copy — and runs the same
// `mumak worker --connect` entry point the CLI dispatches to. Workers
// retry the connect while the parent is still profiling.
std::vector<pid_t> SpawnRemoteWorkers(int listener, uint32_t count) {
  const uint16_t port = fleet::TcpBoundPort(listener);
  EXPECT_NE(port, 0);
  const std::string address = "127.0.0.1:" + std::to_string(port);
  std::vector<pid_t> pids;
  std::fflush(stdout);
  std::fflush(stderr);
  for (uint32_t i = 0; i < count; ++i) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::close(listener);
      ::_exit(fleet::RunRemoteWorker(address, 30000));
    }
    if (pid > 0) {
      pids.push_back(pid);
    }
  }
  return pids;
}

int ReapWorker(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// The headline guarantee holds across the TCP transport: stateless remote
// workers rebuilt from the shipped trace produce the same merged report.
// (The workers are forks of this process, so even resolved code locations
// and pc frames match the in-process reference exactly.) Every accepted
// lane takes part: a range that reached a worker together with the end of
// its bootstrap is served, not left queued behind a blocking read.
TEST(FleetTcp, MatchesSingleProcessOverTcp) {
  const FleetCase c = kCases[0];
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  options.bugs = {c.bug};
  WorkloadSpec spec;
  spec.operations = 300;
  spec.key_space = 50;
  const Report reference = SingleProcessReference(c, spec, options);

  std::string error;
  const int listener = fleet::TcpListen("127.0.0.1:0", &error);
  ASSERT_GE(listener, 0) << error;
  FleetConfig config;
  config.workers = 2;
  config.listen_fd = listener;
  config.accept_timeout_ms = 30000;
  config.target_spec = fleet::EncodeTargetSpec(c.target, options);
  const std::vector<pid_t> workers = SpawnRemoteWorkers(listener, 2);
  ASSERT_EQ(workers.size(), 2u);

  MetricsRegistry metrics;
  FaultInjectionOptions fi;
  fi.metrics = &metrics;
  FaultInjectionStats stats;
  const Report fleet = FleetRun(c, spec, options, config, &stats, fi);
  EXPECT_EQ(fleet.Render(), reference.Render());
  EXPECT_EQ(fleet.RenderJson(), reference.RenderJson());
  EXPECT_GT(stats.injections, 0u);
  EXPECT_EQ(metrics.GetCounter("fleet.remote_workers")->value(), 2u);
  EXPECT_EQ(metrics.GetCounter("fleet.worker_deaths")->value(), 0u);
  for (uint32_t lane = 0; lane < 2; ++lane) {
    EXPECT_GT(metrics
                  .GetCounter("inject.worker." + std::to_string(lane) +
                              ".injections")
                  ->value(),
              0u)
        << "lane " << lane << " delivered no verdict";
  }
  for (const pid_t pid : workers) {
    EXPECT_EQ(ReapWorker(pid), 0);
  }
}

// Severing one of two remote workers loses exactly that one: the survivor
// finishes the re-queued range long before the heartbeat timeout could
// have reaped a wedged lane.
TEST(FleetTcp, SeveringOneOfTwoRemoteWorkersLosesOnlyThatOne) {
  const FleetCase c = kCases[0];
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  options.bugs = {c.bug};
  WorkloadSpec spec;
  spec.operations = 300;
  spec.key_space = 50;
  const Report reference = SingleProcessReference(c, spec, options);

  std::string error;
  const int listener = fleet::TcpListen("127.0.0.1:0", &error);
  ASSERT_GE(listener, 0) << error;
  FleetConfig config;
  config.workers = 2;
  config.listen_fd = listener;
  config.accept_timeout_ms = 30000;
  config.kill_worker_after = 2;
  config.target_spec = fleet::EncodeTargetSpec(c.target, options);
  const std::vector<pid_t> workers = SpawnRemoteWorkers(listener, 2);
  ASSERT_EQ(workers.size(), 2u);

  MetricsRegistry metrics;
  FaultInjectionOptions fi;
  fi.strategy = InjectionStrategy::kReplay;
  fi.metrics = &metrics;
  FaultInjectionEngine engine(Factory(c.target, options), spec, fi);
  FailurePointTree tree = engine.Profile();
  FaultInjectionStats stats;
  const auto started = std::chrono::steady_clock::now();
  const Report fleet = RunFleetCampaign(&engine, &tree, &stats, config);
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - started)
          .count();
  EXPECT_EQ(fleet.Render(), reference.Render());
  EXPECT_EQ(fleet.RenderJson(), reference.RenderJson());
  EXPECT_EQ(metrics.GetCounter("fleet.remote_workers")->value(), 2u);
  EXPECT_EQ(metrics.GetCounter("fleet.worker_deaths")->value(), 1u);
  EXPECT_LT(elapsed_ms, config.heartbeat_timeout_ms / 4);
  for (const pid_t pid : workers) {
    ReapWorker(pid);  // the severed worker's exit code is its own business
  }
}

// Severing a remote worker's connection mid-campaign (--fleet-kill-after
// over TCP) must lose nothing: its unfinished range is re-queued on the
// surviving lanes and the merged report still matches.
TEST(FleetTcp, SurvivesASeveredRemoteWorker) {
  const FleetCase c = kCases[0];
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  options.bugs = {c.bug};
  WorkloadSpec spec;
  spec.operations = 300;
  spec.key_space = 50;
  const Report reference = SingleProcessReference(c, spec, options);

  std::string error;
  const int listener = fleet::TcpListen("127.0.0.1:0", &error);
  ASSERT_GE(listener, 0) << error;
  FleetConfig config;
  config.workers = 4;
  config.listen_fd = listener;
  config.accept_timeout_ms = 30000;
  config.kill_worker_after = 2;
  config.target_spec = fleet::EncodeTargetSpec(c.target, options);
  const std::vector<pid_t> workers = SpawnRemoteWorkers(listener, 4);
  ASSERT_EQ(workers.size(), 4u);

  FaultInjectionStats stats;
  const Report fleet = FleetRun(c, spec, options, config, &stats);
  EXPECT_EQ(fleet.Render(), reference.Render());
  EXPECT_EQ(fleet.RenderJson(), reference.RenderJson());
  for (const pid_t pid : workers) {
    ReapWorker(pid);  // the severed worker's exit code is its own business
  }
}

// A TCP campaign nobody dials into must still finish: when the accept
// window closes with zero workers, the scheduler degrades to the inline
// single-process path.
TEST(FleetTcp, ZeroAcceptedWorkersFallsBackInline) {
  const FleetCase c = kCases[0];
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  options.bugs = {c.bug};
  WorkloadSpec spec;
  spec.operations = 300;
  spec.key_space = 50;
  const Report reference = SingleProcessReference(c, spec, options);

  std::string error;
  const int listener = fleet::TcpListen("127.0.0.1:0", &error);
  ASSERT_GE(listener, 0) << error;
  FleetConfig config;
  config.workers = 2;
  config.listen_fd = listener;
  config.accept_timeout_ms = 1;  // clamped to a minimal accept window
  config.target_spec = fleet::EncodeTargetSpec(c.target, options);

  FaultInjectionStats stats;
  const Report fleet = FleetRun(c, spec, options, config, &stats);
  EXPECT_EQ(fleet.Render(), reference.Render());
  EXPECT_EQ(fleet.RenderJson(), reference.RenderJson());
  EXPECT_GT(stats.injections, 0u);
}

// Proto 2 changed how the bootstrap ships cache entries and proto 3 what
// a digest means, so a scheduler refuses workers announcing proto 1 or 2:
// it closes each connection without a handshake reply and, with no other
// worker, finishes inline.
TEST(FleetTcp, SchedulerRefusesOlderProtoWorkers) {
  const FleetCase c = kCases[0];
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  options.bugs = {c.bug};
  WorkloadSpec spec;
  spec.operations = 300;
  spec.key_space = 50;
  const Report reference = SingleProcessReference(c, spec, options);

  std::string error;
  const int listener = fleet::TcpListen("127.0.0.1:0", &error);
  ASSERT_GE(listener, 0) << error;
  const std::string address =
      "127.0.0.1:" + std::to_string(fleet::TcpBoundPort(listener));
  constexpr uint32_t kOldProtos[] = {1, 2};
  FleetConfig config;
  config.workers = std::size(kOldProtos);
  config.listen_fd = listener;
  config.accept_timeout_ms = 1500;
  config.target_spec = fleet::EncodeTargetSpec(c.target, options);

  FrameChannel::Receipt replies[std::size(kOldProtos)] = {
      FrameChannel::Receipt::kMessage, FrameChannel::Receipt::kMessage};
  std::vector<std::thread> old_workers;
  for (size_t i = 0; i < std::size(kOldProtos); ++i) {
    old_workers.emplace_back([&, i] {
      std::string dial_error;
      std::unique_ptr<FrameChannel> channel;
      for (int attempt = 0; attempt < 100 && channel == nullptr; ++attempt) {
        channel = fleet::TcpConnect(address, &dial_error);
      }
      ASSERT_NE(channel, nullptr) << dial_error;
      fleet::FleetHandshake ours;
      ours.proto = kOldProtos[i];
      ours.role = "worker";
      ASSERT_TRUE(channel->Send(fleet::HandshakeMessage(ours)));
      JsonValue msg;
      replies[i] = channel->Receive(&msg, FrameChannel::Clock::now() +
                                              std::chrono::seconds(10));
    });
  }
  MetricsRegistry metrics;
  FaultInjectionOptions fi;
  fi.metrics = &metrics;
  FaultInjectionStats stats;
  const Report fleet = FleetRun(c, spec, options, config, &stats, fi);
  for (std::thread& worker : old_workers) {
    worker.join();
  }
  ::close(listener);
  for (size_t i = 0; i < std::size(kOldProtos); ++i) {
    EXPECT_EQ(replies[i], FrameChannel::Receipt::kClosed)
        << "proto " << kOldProtos[i];
  }
  EXPECT_EQ(metrics.GetCounter("fleet.remote_workers")->value(), 0u);
  EXPECT_EQ(fleet.Render(), reference.Render());
}

// ...and `mumak worker` refuses a scheduler announcing proto 1 or 2 before
// any bootstrap frame, announcing proto 3 itself.
TEST(FleetTcp, WorkerRefusesOlderProtoSchedulers) {
  for (const uint32_t old_proto : {1u, 2u}) {
    SCOPED_TRACE("proto " + std::to_string(old_proto));
    std::string error;
    const int listener = fleet::TcpListen("127.0.0.1:0", &error);
    ASSERT_GE(listener, 0) << error;
    const std::string address =
        "127.0.0.1:" + std::to_string(fleet::TcpBoundPort(listener));
    int exit_code = -1;
    std::thread worker(
        [&] { exit_code = fleet::RunRemoteWorker(address, 10000); });
    pollfd pfd = {listener, POLLIN, 0};
    ASSERT_EQ(::poll(&pfd, 1, 10000), 1);
    std::unique_ptr<FrameChannel> channel = fleet::TcpAccept(listener);
    ASSERT_NE(channel, nullptr);
    fleet::FleetHandshake theirs;
    ASSERT_TRUE(fleet::ReadHandshake(channel.get(), 10000, &theirs, &error))
        << error;
    EXPECT_EQ(theirs.proto, 3u);
    fleet::FleetHandshake ours;
    ours.proto = old_proto;
    ours.role = "scheduler";
    ASSERT_TRUE(channel->Send(fleet::HandshakeMessage(ours)));
    worker.join();
    EXPECT_EQ(exit_code, 2);
    ::close(listener);
  }
}

// -- 5. Verdict-cache epilogue ----------------------------------------------

// A fleet campaign persists the same verdict cache a single-process run
// would: same entry count, and a second single-process run over it is
// fully warm.
TEST(FleetVerdictCache, FleetRunWarmsThePersistentCache) {
  const FleetCase c = kCases[0];
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  options.bugs = {c.bug};
  WorkloadSpec spec;
  spec.operations = 300;
  spec.key_space = 50;

  const std::string fleet_cache = TempPath("fleet_warm.mvc");
  const std::string single_cache = TempPath("single_warm.mvc");
  std::remove(fleet_cache.c_str());
  std::remove(single_cache.c_str());

  FaultInjectionOptions fleet_fi;
  fleet_fi.verdict_cache_path = fleet_cache;
  FleetConfig config;
  config.workers = 3;
  FaultInjectionStats fleet_stats;
  FleetRun(c, spec, options, config, &fleet_stats, fleet_fi);
  EXPECT_GT(fleet_stats.cache_saved, 0u);

  FaultInjectionOptions single_fi;
  single_fi.strategy = InjectionStrategy::kReplay;
  single_fi.verdict_cache_path = single_cache;
  FaultInjectionEngine single(Factory(c.target, options), spec, single_fi);
  FailurePointTree single_tree = single.Profile();
  FaultInjectionStats single_stats;
  single.InjectAll(&single_tree, &single_stats);
  EXPECT_EQ(fleet_stats.cache_saved, single_stats.cache_saved);

  // Second run over the fleet-written cache: every verdict comes from it.
  FaultInjectionOptions warm_fi;
  warm_fi.strategy = InjectionStrategy::kReplay;
  warm_fi.verdict_cache_path = fleet_cache;
  FaultInjectionEngine warm(Factory(c.target, options), spec, warm_fi);
  FailurePointTree warm_tree = warm.Profile();
  FaultInjectionStats warm_stats;
  warm.InjectAll(&warm_tree, &warm_stats);
  EXPECT_EQ(warm_stats.distinct_images, 0u);
  EXPECT_EQ(warm_stats.dedup_hits, warm_stats.injections);
  std::remove(fleet_cache.c_str());
  std::remove(single_cache.c_str());
}

// -- 6. Serve daemon ---------------------------------------------------------

// 6a. Cache-key normalization: scheduling/observability flags must not
// change which cache file a submission lands on; campaign flags must.

TEST(ServeCacheKey, StripsSchedulingFlagsWithTheirValues) {
  const std::vector<std::string> base = {"--target", "btree", "--ops", "120"};
  std::vector<std::string> noisy = base;
  for (const char* extra : {"--fleet-workers", "4", "--fleet-shards", "8",
                            "--jobs", "2", "--analysis-jobs", "3",
                            "--budget-checks", "100", "--journal", "x.mjn",
                            "--verdict-cache", "y.mvc", "--progress"}) {
    noisy.push_back(extra);
  }
  EXPECT_EQ(fleet::SubmitCacheKey(noisy), fleet::SubmitCacheKey(base));
  EXPECT_EQ(fleet::SubmitCacheKey(base).size(), 16u);
}

TEST(ServeCacheKey, DistinguishesCampaignFlags) {
  const std::vector<std::string> a = {"--target", "btree", "--ops", "120"};
  const std::vector<std::string> b = {"--target", "btree", "--ops", "121"};
  const std::vector<std::string> c = {"--target", "hashmap_tx", "--ops",
                                      "120"};
  EXPECT_NE(fleet::SubmitCacheKey(a), fleet::SubmitCacheKey(b));
  EXPECT_NE(fleet::SubmitCacheKey(a), fleet::SubmitCacheKey(c));
}

TEST(ServeCacheKey, HandlesEqualsFormsAndBooleanFlags) {
  const std::vector<std::string> base = {"--target", "btree"};
  // `--flag=value` is self-contained: it must not eat the next token.
  const std::vector<std::string> eq = {"--fleet-workers=4", "--target",
                                       "btree"};
  EXPECT_EQ(fleet::SubmitCacheKey(eq), fleet::SubmitCacheKey(base));
  // A boolean scheduling flag followed by another flag must not eat it.
  const std::vector<std::string> boolean = {"--progress", "--target",
                                            "btree"};
  EXPECT_EQ(fleet::SubmitCacheKey(boolean), fleet::SubmitCacheKey(base));
}

TEST(ServeCacheKey, SeparatorPreventsConcatenationCollisions) {
  EXPECT_NE(fleet::SubmitCacheKey({"ab"}), fleet::SubmitCacheKey({"a", "b"}));
}

// 6b. The job queue. The daemon runs in a forked child; submissions exec a
// stand-in binary via MUMAK_SERVE_EXEC (/bin/sleep for lifetime control,
// /bin/echo to observe the injected flags, the real CLI for warm-cache
// composition). The tests speak the daemon's MFL1 unix-socket protocol
// directly, which doubles as coverage for the request/reply frames.

class ServeDaemonGuard {
 public:
  ServeDaemonGuard(const fleet::ServeOptions& options,
                   const std::string& exec_override) {
    ::setenv("MUMAK_SERVE_EXEC", exec_override.c_str(), 1);
    std::fflush(stdout);
    std::fflush(stderr);
    pid_ = ::fork();
    if (pid_ == 0) {
      ::_exit(fleet::RunServeDaemon(options));
    }
    ::unsetenv("MUMAK_SERVE_EXEC");
  }

  ~ServeDaemonGuard() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
    }
  }

  bool ok() const { return pid_ > 0; }

  // Graceful SIGTERM shutdown; returns the daemon's exit code.
  int Stop() {
    if (pid_ <= 0) {
      return -1;
    }
    ::kill(pid_, SIGTERM);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  pid_t pid_ = -1;
};

int ConnectServe(const std::string& socket_path, int timeout_ms) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    return -1;
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int deadline_rounds = timeout_ms / 20 + 1;
  for (int round = 0; round < deadline_rounds; ++round) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      return -1;
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    ::close(fd);
    ::usleep(20 * 1000);  // the daemon child may not have bound yet
  }
  return -1;
}

// One status round trip; false when the daemon is unreachable.
bool ServeStatus(const std::string& socket_path, JsonValue* out) {
  const int fd = ConnectServe(socket_path, 5000);
  if (fd < 0) {
    return false;
  }
  FrameChannel channel(fd, fleet::kFleetMaxPayload);
  return channel.Send(JsonObject().Str("type", "status").Finish()) &&
         ReceiveWithin(&channel, out, 5000) && out->Str("type") == "status";
}

// Polls status until `predicate` holds. False on timeout.
bool WaitForServeState(const std::string& socket_path,
                       const std::function<bool(const JsonValue&)>& predicate,
                       int timeout_ms) {
  for (int waited = 0; waited <= timeout_ms; waited += 50) {
    JsonValue status;
    if (ServeStatus(socket_path, &status) && predicate(status)) {
      return true;
    }
    ::usleep(50 * 1000);
  }
  return false;
}

// Opens a submit connection and sends the argv; the connection stays open
// (it is the job's cancellation scope). Null on failure.
std::unique_ptr<FrameChannel> SubmitJob(const std::string& socket_path,
                                        const std::vector<std::string>& args) {
  const int fd = ConnectServe(socket_path, 10000);
  if (fd < 0) {
    return nullptr;
  }
  auto channel = std::make_unique<FrameChannel>(fd, fleet::kFleetMaxPayload);
  std::string argv_json = "[";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i != 0) {
      argv_json += ", ";
    }
    argv_json += '"';
    argv_json += JsonEscape(args[i]);
    argv_json += '"';
  }
  argv_json += "]";
  if (!channel->Send(JsonObject()
                         .Str("type", "submit")
                         .Raw("argv", argv_json)
                         .Finish())) {
    return nullptr;
  }
  return channel;
}

// The stale-job rule: a submitter that disconnects takes its job with it —
// the running campaign is killed, counted as canceled (not done), and
// nothing is re-queued.
TEST(ServeQueue, CancelsTheJobWhenTheSubmitterDisconnects) {
  fleet::ServeOptions options;
  options.socket_path = TempPath("serve_cancel.sock");
  options.max_jobs = 1;
  ServeDaemonGuard daemon(options, "/bin/sleep");
  ASSERT_TRUE(daemon.ok());

  std::unique_ptr<FrameChannel> submit = SubmitJob(options.socket_path, {"30"});
  ASSERT_NE(submit, nullptr);
  ASSERT_TRUE(WaitForServeState(
      options.socket_path,
      [](const JsonValue& s) { return s.U64("running") == 1; }, 10000));

  submit.reset();  // walk away mid-flight

  ASSERT_TRUE(WaitForServeState(
      options.socket_path,
      [](const JsonValue& s) { return s.U64("jobs_canceled") == 1; }, 10000));
  JsonValue status;
  ASSERT_TRUE(ServeStatus(options.socket_path, &status));
  EXPECT_EQ(status.U64("jobs_done"), 0u);     // canceled != completed
  EXPECT_EQ(status.U64("queue_depth"), 0u);   // nothing re-queued
  EXPECT_EQ(status.U64("running"), 0u);
  const JsonValue* job_list = status.Find("jobs");
  ASSERT_NE(job_list, nullptr);
  ASSERT_EQ(job_list->type, JsonValue::Type::kArray);
  ASSERT_EQ(job_list->array.size(), 1u);
  EXPECT_EQ(job_list->array[0].Str("state"), "done");
  EXPECT_EQ(job_list->array[0].Str("stop"), "canceled");

  EXPECT_EQ(daemon.Stop(), 0);
}

// Three submissions against max_jobs=2: two run at once, one queues, and
// all three drain to their submitters with result frames.
TEST(ServeQueue, RunsConcurrentlyUpToMaxJobsAndDrainsTheQueue) {
  fleet::ServeOptions options;
  options.socket_path = TempPath("serve_queue.sock");
  options.max_jobs = 2;
  ServeDaemonGuard daemon(options, "/bin/sleep");
  ASSERT_TRUE(daemon.ok());

  std::unique_ptr<FrameChannel> submits[3];
  for (std::unique_ptr<FrameChannel>& submit : submits) {
    submit = SubmitJob(options.socket_path, {"1"});
    ASSERT_NE(submit, nullptr);
  }
  EXPECT_TRUE(WaitForServeState(
      options.socket_path,
      [](const JsonValue& s) {
        return s.U64("running") == 2 && s.U64("queue_depth") == 1;
      },
      10000));

  for (std::unique_ptr<FrameChannel>& submit : submits) {
    JsonValue result;
    ASSERT_TRUE(ReceiveWithin(submit.get(), &result, 30000));
    EXPECT_EQ(result.Str("type"), "result");
    EXPECT_EQ(result.U64("exit"), 0u);
    EXPECT_EQ(result.Str("stop"), "ok");
    submit.reset();
  }
  JsonValue status;
  ASSERT_TRUE(ServeStatus(options.socket_path, &status));
  EXPECT_EQ(status.U64("jobs_done"), 3u);
  EXPECT_EQ(status.U64("jobs_canceled"), 0u);
  EXPECT_EQ(status.U64("running"), 0u);
  EXPECT_EQ(status.U64("queue_depth"), 0u);

  EXPECT_EQ(daemon.Stop(), 0);
}

// Two submissions that differ only in scheduling flags must land on the
// same injected --verdict-cache file, and daemon budgets are injected into
// submissions that carry none. /bin/echo reflects the final argv back as
// the job's "report".
TEST(ServeQueue, SameFingerprintJobsShareOneCacheFile) {
  fleet::ServeOptions options;
  options.socket_path = TempPath("serve_cache.sock");
  options.max_jobs = 2;
  options.cache_dir = testing::TempDir();
  options.budget_seconds = 60;
  ServeDaemonGuard daemon(options, "/bin/echo");
  ASSERT_TRUE(daemon.ok());

  const std::vector<std::string> campaign = {"--target", "btree", "--ops",
                                             "120"};
  std::vector<std::string> rescheduled = campaign;
  for (const char* extra :
       {"--jobs", "4", "--fleet-workers", "3", "--budget-checks", "10"}) {
    rescheduled.push_back(extra);
  }

  auto echoed_argv = [&](const std::vector<std::string>& args) {
    const std::unique_ptr<FrameChannel> submit =
        SubmitJob(options.socket_path, args);
    EXPECT_NE(submit, nullptr);
    JsonValue result;
    EXPECT_TRUE(submit != nullptr &&
                ReceiveWithin(submit.get(), &result, 15000));
    EXPECT_EQ(result.Str("stop"), "ok");
    return result.Str("report");
  };
  auto cache_path_of = [](const std::string& echoed) {
    const std::string flag = "--verdict-cache ";
    const size_t at = echoed.find(flag);
    if (at == std::string::npos) {
      return std::string();
    }
    const size_t begin = at + flag.size();
    return echoed.substr(begin, echoed.find_first_of(" \n", begin) - begin);
  };

  const std::string first = echoed_argv(campaign);
  const std::string second = echoed_argv(rescheduled);
  const std::string first_cache = cache_path_of(first);
  ASSERT_FALSE(first_cache.empty()) << first;
  EXPECT_EQ(cache_path_of(second), first_cache) << second;
  EXPECT_EQ(first_cache, options.cache_dir + "/" +
                             fleet::SubmitCacheKey(campaign) + ".mvc");
  // The daemon budget reaches a submission with no --budget-seconds of its
  // own; the second submission's own --budget-checks is left alone.
  EXPECT_NE(first.find("--budget-seconds 60"), std::string::npos) << first;
  EXPECT_NE(second.find("--budget-checks 10"), std::string::npos) << second;

  EXPECT_EQ(daemon.Stop(), 0);
}

#ifdef MUMAK_CLI_PATH
// Queue + warm-cache composition with the real CLI: the second submission
// of the same campaign (differing only in scheduling flags) replays every
// verdict out of the shared cache file the first one wrote.
TEST(ServeQueue, SecondSameFingerprintJobStartsWarm) {
  fleet::ServeOptions options;
  options.socket_path = TempPath("serve_warm.sock");
  options.max_jobs = 1;
  options.cache_dir = testing::TempDir();
  ServeDaemonGuard daemon(options, MUMAK_CLI_PATH);
  ASSERT_TRUE(daemon.ok());

  const std::vector<std::string> campaign = {
      "--target", "btree", "--ops", "300", "--keys", "50",
      "--bug", "btree.split_unlogged", "--strategy", "replay"};
  std::vector<std::string> rescheduled = campaign;
  rescheduled.push_back("--jobs");
  rescheduled.push_back("1");

  auto run = [&](const std::vector<std::string>& args, JsonValue* result) {
    const std::unique_ptr<FrameChannel> submit =
        SubmitJob(options.socket_path, args);
    ASSERT_NE(submit, nullptr);
    ASSERT_TRUE(ReceiveWithin(submit.get(), result, 120000));
  };

  JsonValue cold;
  run(campaign, &cold);
  EXPECT_EQ(cold.U64("exit"), 1u);  // the seeded bug was found
  EXPECT_EQ(cold.Str("stop"), "bugs");
  EXPECT_NE(cold.Str("report").find(" saved ("), std::string::npos)
      << cold.Str("report");

  JsonValue warm;
  run(rescheduled, &warm);
  EXPECT_EQ(warm.U64("exit"), 1u);
  EXPECT_EQ(warm.Str("stop"), "bugs");
  // Fully warm: zero fresh images, every verdict from the shared cache.
  EXPECT_NE(warm.Str("report").find("image dedup: 0 distinct image(s)"),
            std::string::npos)
      << warm.Str("report");

  EXPECT_EQ(daemon.Stop(), 0);
}
#endif  // MUMAK_CLI_PATH

}  // namespace
}  // namespace mumak
