#include "src/fleet/bootstrap.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>

#include "src/core/injection_pipeline.h"
#include "src/core/verdict_cache.h"
#include "src/fleet/messages.h"
#include "src/fleet/worker.h"
#include "src/observability/flat_json.h"

namespace mumak {
namespace fleet {
namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

void PackU64(std::string* out, uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<char>((value >> shift) & 0xff));
  }
}

bool UnpackU64s(const std::vector<uint8_t>& bytes,
                std::vector<uint64_t>* out) {
  if (bytes.size() % 8 != 0) {
    return false;
  }
  out->clear();
  out->reserve(bytes.size() / 8);
  for (size_t i = 0; i < bytes.size(); i += 8) {
    uint64_t value = 0;
    for (int b = 7; b >= 0; --b) {
      value = (value << 8) | bytes[i + static_cast<size_t>(b)];
    }
    out->push_back(value);
  }
  return true;
}

std::string BugsArrayJson(const std::set<std::string>& bugs) {
  std::string out = "[";
  bool first = true;
  for (const std::string& bug : bugs) {
    if (!first) {
      out += ", ";
    }
    first = false;
    out += '"';
    out += JsonEscape(bug);
    out += '"';
  }
  out += "]";
  return out;
}

// Ships one named artifact as a run of hex chunk frames. An empty blob
// still sends one (empty, last) chunk so the receiver sees every name.
bool ShipArtifact(FrameChannel* channel, const char* name,
                  const std::string& bytes) {
  size_t off = 0;
  do {
    const size_t take = std::min(kBootstrapChunkBytes, bytes.size() - off);
    const bool last = off + take >= bytes.size();
    const std::string json =
        JsonObject()
            .Str("type", "artifact")
            .Str("name", name)
            .Bool("last", last)
            .Str("data",
                 HexEncode(
                     reinterpret_cast<const uint8_t*>(bytes.data()) + off,
                     take))
            .Finish();
    if (!channel->Send(json)) {
      return false;
    }
    off += take;
  } while (off < bytes.size());
  return true;
}

}  // namespace

std::string HexEncode(const uint8_t* data, size_t size) {
  std::string out;
  out.reserve(size * 2);
  for (size_t i = 0; i < size; ++i) {
    out.push_back(kHexDigits[data[i] >> 4]);
    out.push_back(kHexDigits[data[i] & 0xf]);
  }
  return out;
}

bool HexDecode(const std::string& hex, std::vector<uint8_t>* out) {
  if (hex.size() % 2 != 0) {
    return false;
  }
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') {
      return c - '0';
    }
    if (c >= 'a' && c <= 'f') {
      return c - 'a' + 10;
    }
    return -1;
  };
  out->reserve(out->size() + hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return false;
    }
    out->push_back(static_cast<uint8_t>((hi << 4) | lo));
  }
  return true;
}

std::string EncodeTargetSpec(const std::string& name,
                             const TargetOptions& options) {
  return JsonObject()
      .Str("name", name)
      .U64("pmdk", static_cast<uint64_t>(options.pmdk_version))
      .Raw("bugs", BugsArrayJson(options.bugs))
      .Bool("with_recovery", options.with_recovery)
      .Bool("single_put_per_tx", options.single_put_per_tx)
      .U64("tx_batch", options.tx_batch)
      .U64("montage_epoch_ops", options.montage.epoch_length_ops)
      .Bool("montage_alloc_recoverability_bug",
            options.montage.allocator_recoverability_bug)
      .Bool("montage_alloc_destruction_bug",
            options.montage.allocator_destruction_bug)
      .Finish();
}

bool DecodeTargetSpec(const std::string& json, std::string* name,
                      TargetOptions* options) {
  JsonValue spec;
  if (!JsonParser(json).Parse(&spec)) {
    return false;
  }
  *name = spec.Str("name");
  if (name->empty()) {
    return false;
  }
  switch (spec.U64("pmdk")) {
    case 16:
      options->pmdk_version = PmdkVersion::k16;
      break;
    case 18:
      options->pmdk_version = PmdkVersion::k18;
      break;
    case 112:
      options->pmdk_version = PmdkVersion::k112;
      break;
    default:
      return false;
  }
  options->bugs.clear();
  const JsonValue* bugs = spec.Find("bugs");
  if (bugs != nullptr && bugs->type == JsonValue::Type::kArray) {
    for (const JsonValue& bug : bugs->array) {
      if (bug.type == JsonValue::Type::kString) {
        options->bugs.insert(bug.string);
      }
    }
  }
  options->with_recovery = spec.BoolOr("with_recovery", true);
  options->single_put_per_tx = spec.BoolOr("single_put_per_tx", true);
  options->tx_batch = spec.U64("tx_batch");
  options->montage.epoch_length_ops = spec.U64("montage_epoch_ops");
  options->montage.allocator_recoverability_bug =
      spec.BoolOr("montage_alloc_recoverability_bug", false);
  options->montage.allocator_destruction_bug =
      spec.BoolOr("montage_alloc_destruction_bug", false);
  return true;
}

bool ShipBootstrap(FrameChannel* channel,
                   const BootstrapArtifacts& artifacts) {
  const std::string header =
      JsonObject()
          .Str("type", "bootstrap")
          .Str("target", artifacts.target_spec)
          .Hex64("pool_size", artifacts.pool_size)
          .U64("schedule_count", artifacts.schedule_seqs.size())
          .Bool("image_dedup", artifacts.image_dedup)
          .Bool("verify_dedup", artifacts.verify_dedup)
          .U64("seek_checkpoints", artifacts.seek_checkpoints)
          .U64("sandbox_policy",
               static_cast<uint64_t>(artifacts.sandbox.policy))
          .U64("sandbox_timeout_ms", artifacts.sandbox.timeout_ms)
          .Hex64("sandbox_mem", artifacts.sandbox.address_space_bytes)
          .Bool("sandbox_verify_digest", artifacts.sandbox.verify_digest)
          .U64("checks_per_fork", artifacts.sandbox.checks_per_fork)
          .U64("trace_bytes", artifacts.trace_v3.size())
          .Finish();
  if (!channel->Send(header)) {
    return false;
  }
  if (!ShipArtifact(channel, "trace", artifacts.trace_v3)) {
    return false;
  }
  std::string packed;
  packed.reserve(artifacts.schedule_seqs.size() * 8);
  for (const uint64_t seq : artifacts.schedule_seqs) {
    PackU64(&packed, seq);
  }
  if (!ShipArtifact(channel, "schedule", packed)) {
    return false;
  }
  for (const auto& [digest, verdict] : artifacts.cache_entries) {
    if (!channel->Send(VerdictCache::CacheRecord(digest, verdict))) {
      return false;
    }
  }
  return channel->Send(SimpleMessage("bootstrap_done"));
}

bool ReceiveBootstrap(FrameChannel* channel, WorkerBootstrap* out,
                      std::string* error) {
  bool saw_header = false;
  std::vector<uint8_t> trace_bytes;
  std::vector<uint8_t> schedule_bytes;
  for (;;) {
    JsonValue msg;
    if (channel->Receive(&msg, FrameChannel::kNoDeadline) !=
        FrameChannel::Receipt::kMessage) {
      *error = "connection lost during bootstrap";
      return false;
    }
    const std::string type = msg.Str("type");
    if (type == "bootstrap") {
      saw_header = true;
      if (!DecodeTargetSpec(msg.Str("target"), &out->target_name,
                            &out->target_options)) {
        *error = "bootstrap carried an undecodable target spec";
        return false;
      }
      out->pool_size = msg.Hex64("pool_size");
      out->image_dedup = msg.BoolOr("image_dedup", true);
      out->verify_dedup = msg.BoolOr("verify_dedup", false);
      out->seek_checkpoints =
          static_cast<uint32_t>(msg.U64("seek_checkpoints"));
      switch (msg.U64("sandbox_policy")) {
        case 0:
          out->sandbox.policy = SandboxPolicy::kInProcess;
          break;
        case 2:
          out->sandbox.policy = SandboxPolicy::kForkServer;
          break;
        default:
          *error = "bootstrap carried an unknown sandbox policy";
          return false;
      }
      out->sandbox.timeout_ms =
          static_cast<uint32_t>(msg.U64("sandbox_timeout_ms"));
      out->sandbox.address_space_bytes = msg.Hex64("sandbox_mem");
      out->sandbox.verify_digest =
          msg.BoolOr("sandbox_verify_digest", false);
      out->sandbox.checks_per_fork =
          static_cast<uint32_t>(msg.U64("checks_per_fork"));
    } else if (type == "artifact") {
      const std::string name = msg.Str("name");
      std::vector<uint8_t>* sink = name == "trace" ? &trace_bytes
                                   : name == "schedule" ? &schedule_bytes
                                                        : nullptr;
      if (sink == nullptr) {
        continue;  // future artifact: skip, stay compatible
      }
      if (!HexDecode(msg.Str("data"), sink)) {
        *error = "artifact '" + name + "' carried malformed hex";
        return false;
      }
    } else if (type == "verdict") {
      ImageDigest digest;
      JournalVerdict verdict;
      if (VerdictCache::ReadCacheRecord(msg, &digest, &verdict)) {
        out->cache_entries.emplace_back(digest, std::move(verdict));
      }
    } else if (type == "bootstrap_done") {
      break;
    }
    // Anything else (heartbeat etc.): ignore.
  }
  if (!saw_header) {
    *error = "peer finished bootstrap without a header";
    return false;
  }
  if (!UnpackU64s(schedule_bytes, &out->schedule_seqs)) {
    *error = "shipped schedule seqs are misaligned";
    return false;
  }
  // The replay cursor writes every payload into a pool of this size and
  // only asserts the bounds, so a well-framed but wrong bootstrap stops here
  // or in the stream validation below.
  const TargetPtr target = CreateTarget(out->target_name, out->target_options);
  const uint64_t pool = out->pool_size;
  if (target == nullptr || pool != target->DefaultPoolSize()) {
    *error = "bootstrap pool_size " + std::to_string(pool) +
             " is not the pool size of target '" + out->target_name + "'";
    return false;
  }
  std::string trace_error;
  if (!TraceStream::Parse(std::move(trace_bytes), pool, &out->trace,
                          &trace_error)) {
    *error = "shipped trace failed validation: " + trace_error;
    return false;
  }
  return true;
}

int RunRemoteWorker(const std::string& address,
                    uint32_t connect_timeout_ms) {
  using Clock = std::chrono::steady_clock;
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(connect_timeout_ms);
  std::unique_ptr<FrameChannel> channel;
  std::string error;
  for (;;) {
    channel = TcpConnect(address, &error);
    if (channel != nullptr) {
      break;
    }
    if (Clock::now() >= deadline) {
      std::fprintf(stderr, "mumak: worker: %s\n", error.c_str());
      return 2;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }

  FleetHandshake ours;
  ours.proto = kFleetProtoVersion;
  ours.role = "worker";
  if (!channel->Send(HandshakeMessage(ours))) {
    std::fprintf(stderr, "mumak: worker: scheduler hung up\n");
    return 2;
  }
  FleetHandshake theirs;
  if (!ReadHandshake(channel.get(), static_cast<int>(connect_timeout_ms),
                     &theirs, &error)) {
    std::fprintf(stderr, "mumak: worker: %s\n", error.c_str());
    return 2;
  }
  if (theirs.proto != kFleetProtoVersion || theirs.role != "scheduler") {
    std::fprintf(stderr,
                 "mumak: worker: incompatible peer (proto %u, role '%s')\n",
                 theirs.proto, theirs.role.c_str());
    return 2;
  }

  WorkerBootstrap boot;
  if (!ReceiveBootstrap(channel.get(), &boot, &error)) {
    std::fprintf(stderr, "mumak: worker: %s\n", error.c_str());
    return 2;
  }

  // Reconstruct the replay pipeline the forked path inherits for free.
  const std::string target_name = boot.target_name;
  const TargetOptions target_options = boot.target_options;
  TargetFactory factory = [target_name, target_options]() {
    return CreateTarget(target_name, target_options);
  };
  std::vector<ReplayPoint> schedule;
  schedule.reserve(boot.schedule_seqs.size());
  for (const uint64_t seq : boot.schedule_seqs) {
    schedule.push_back(ReplayPoint{0, seq});
  }
  ImageSource images(boot.trace, boot.pool_size, boot.image_dedup,
                     boot.seek_checkpoints);
  VerdictCache cache(boot.verify_dedup);
  for (auto& [digest, verdict] : boot.cache_entries) {
    cache.Preload(digest, std::move(verdict));
  }

  WorkerEnv env;
  env.factory = std::move(factory);
  env.pool_size = boot.pool_size;
  env.schedule = &schedule;
  env.cache = boot.image_dedup ? &cache : nullptr;
  env.sandbox = boot.sandbox;
  WorkerLoop(channel.get(), theirs.worker, env, &images);
  return 0;
}

}  // namespace fleet
}  // namespace mumak
