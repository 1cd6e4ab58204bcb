// Stateless worker bootstrap (src/fleet): everything a fresh process on
// any host needs to serve injection ranges, shipped over MFL1 right after
// the TCP handshake. The forked path inherits this state copy-on-write;
// the remote path reconstructs it from these frames:
//
//   scheduler -> worker, in order:
//     bootstrap {target, pool_size, schedule_count, image_dedup,
//                verify_dedup, seek_checkpoints, sandbox_*}
//     artifact {name:"trace",    data:<hex>, last}   the profile's v3 stream
//     artifact {name:"schedule", data:<hex>, last}   packed LE u64 seqs
//     verdict {seq, status, ..., digest} *           loaded cache entries
//     bootstrap_done {}
//
// A worker skips an artifact it does not know, such as the "scout" seqs an
// older scheduler still ships, and an artifact that never arrives unpacks
// as empty. The worker preloads the cache entries (CacheRecord frames).
//
// The trace artifact is the scheduler's in-memory v3 stream, unchanged.
// The worker validates it once on receipt (TraceStream::Parse: every
// block's CRC and decode, the event count, every store inside the pool)
// and then decodes blocks lazily as its cursor reaches them. The worker
// answers with the regular `hello` and enters the range loop.
// Schedule entries travel as bare seqs — a remote worker never needs tree
// node ids (locations are stamped scheduler-side) and the failure point
// tree never crosses the wire.

#ifndef MUMAK_SRC_FLEET_BOOTSTRAP_H_
#define MUMAK_SRC_FLEET_BOOTSTRAP_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/fleet/transport.h"
#include "src/instrument/trace.h"
#include "src/observability/journal.h"
#include "src/pmem/image_digest.h"
#include "src/sandbox/options.h"
#include "src/targets/target.h"

namespace mumak {
namespace fleet {

// Raw bytes per artifact chunk frame; hex-encoding doubles this on the
// wire, comfortably under the 1 MiB MFL1 payload cap.
inline constexpr size_t kBootstrapChunkBytes = 256u << 10;

// --- target spec codec --------------------------------------------------
//
// A campaign's target identity as one flat-JSON string, so FleetConfig can
// carry it without depending on target headers. Covers every TargetOptions
// field the recovery oracle can observe.
std::string EncodeTargetSpec(const std::string& name,
                             const TargetOptions& options);
bool DecodeTargetSpec(const std::string& json, std::string* name,
                      TargetOptions* options);

// --- scheduler side -----------------------------------------------------

struct BootstrapArtifacts {
  std::string target_spec;  // EncodeTargetSpec output
  std::string trace_v3;     // the profile's trace stream bytes
  std::vector<uint64_t> schedule_seqs;
  uint64_t pool_size = 0;
  bool image_dedup = true;
  bool verify_dedup = false;
  uint32_t seek_checkpoints = 0;
  SandboxOptions sandbox;
  std::vector<std::pair<ImageDigest, JournalVerdict>> cache_entries;
};

// Streams the artifacts to a handshaken worker. False when the connection
// drops mid-ship (the caller treats the lane as dead).
bool ShipBootstrap(FrameChannel* channel, const BootstrapArtifacts& artifacts);

// --- worker side --------------------------------------------------------

struct WorkerBootstrap {
  std::string target_name;
  TargetOptions target_options;
  TraceStream trace;
  std::vector<uint64_t> schedule_seqs;
  uint64_t pool_size = 0;
  bool image_dedup = true;
  bool verify_dedup = false;
  uint32_t seek_checkpoints = 0;
  SandboxOptions sandbox;
  std::vector<std::pair<ImageDigest, JournalVerdict>> cache_entries;
};

// Receives one bootstrap sequence (everything up to bootstrap_done). A
// frame that arrived behind bootstrap_done (the first range, say) stays
// queued on `channel` for the range loop.
// False with `*error` set on connection loss, corrupt frames, artifacts
// that fail to reconstruct (a trace stream that fails validation — torn,
// lost blocks, corrupt — or bad hex), or ones this worker cannot replay
// safely (a foreign pool size, a store outside the pool). The trace is
// all or nothing: never accepted as a shorter one.
bool ReceiveBootstrap(FrameChannel* channel, WorkerBootstrap* out,
                      std::string* error);

// `mumak worker --connect` entry point: dials the scheduler — retrying
// until `connect_timeout_ms` expires, since workers typically start before
// the scheduler finishes profiling and begins listening — handshakes,
// receives the bootstrap, reconstructs the replay pipeline (trace, image
// source, verdict cache) and serves ranges until shutdown or connection
// loss. Returns the process
// exit code (0 on a clean campaign end, 2 on bootstrap failure).
int RunRemoteWorker(const std::string& address, uint32_t connect_timeout_ms);

// --- hex codec (shared with tests) --------------------------------------

std::string HexEncode(const uint8_t* data, size_t size);
bool HexDecode(const std::string& hex, std::vector<uint8_t>* out);

}  // namespace fleet
}  // namespace mumak

#endif  // MUMAK_SRC_FLEET_BOOTSTRAP_H_
