// Fleet connections (src/fleet). Every fleet connection is a FrameChannel
// (src/observability/frame_channel.h) to one worker:
//
//  - one end of an AF_UNIX socketpair to a forked worker (the worker
//    inherits campaign state copy-on-write);
//  - a connected TCP socket to a stateless remote worker (`mumak worker
//    --connect host:port`). The first frame in each direction is a
//    handshake carrying the protocol version and the trace fingerprint,
//    read under a 4 KiB cap (kFleetMaxHandshakeBytes), so an incompatible
//    or hostile peer is rejected before the general 1 MiB cap would let it
//    make the scheduler buffer anything.
//
// Everything above the channel — heartbeat death detection, work
// stealing, range re-queue, the verdict merge — is the same for both: a
// remote worker's death is a connection loss instead of a SIGCHLD, and
// the scheduler's reap path only signals/waits when it owns a pid.

#ifndef MUMAK_SRC_FLEET_TRANSPORT_H_
#define MUMAK_SRC_FLEET_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/observability/flat_json.h"
#include "src/observability/frame_channel.h"

namespace mumak {
namespace fleet {

// Protocol version carried in the TCP handshake. Bumped whenever a frame
// the bootstrap sequence ships changes incompatibly. 2: the bootstrap's
// verdict cache entries are cache records (VerdictCache::CacheRecord), no
// longer `insert` frames. 3: image digests are zero-relative, so a
// digest in a cache record or a `verdict` frame means another image to a
// proto 2 peer.
inline constexpr uint32_t kFleetProtoVersion = 3;
// Payload cap on the first (handshake) frame of a TCP connection. A
// handshake is a small fixed-shape object; anything bigger is a peer that
// does not speak this protocol.
inline constexpr uint32_t kFleetMaxHandshakeBytes = 4096;
// Payload cap on every other fleet and serve frame: each carries one
// flat-JSON control message, and nothing legitimate comes close (the
// largest are the bootstrap's 256 KiB artifact chunks, hex-encoded).
inline constexpr uint32_t kFleetMaxPayload = 1u << 20;

// --- TCP plumbing (IPv4; `address` is "host:port", host defaulting to
// 127.0.0.1 for connect and 0.0.0.0 for listen) --------------------------

// Binds and listens. Returns the listener fd, or -1 with `*error` set.
int TcpListen(const std::string& address, std::string* error);

// Port a listener is bound to (resolves ":0" binds). 0 on failure.
uint16_t TcpBoundPort(int listener_fd);

// Accepts one pending connection (the caller polls the listener first).
// Null on accept failure. The channel starts at the handshake cap.
std::unique_ptr<FrameChannel> TcpAccept(int listener_fd);

// Dials `address`. Null with `*error` set on failure. The channel starts
// at the handshake cap.
std::unique_ptr<FrameChannel> TcpConnect(const std::string& address,
                                         std::string* error);

// --- handshake ----------------------------------------------------------

// First frame on a TCP fleet connection, both directions:
//   worker    -> scheduler: {type:"handshake", proto, role:"worker"}
//   scheduler -> worker:    {type:"handshake", proto, role:"scheduler",
//                            worker:<lane>, fingerprint:"<16 hex>"}
struct FleetHandshake {
  uint32_t proto = 0;
  std::string role;
  uint32_t worker = 0;
  uint64_t fingerprint = 0;
};

std::string HandshakeMessage(const FleetHandshake& hs);

// False when `msg` is not a handshake object. Does not validate the
// version — the caller decides how to reject a mismatch.
bool ParseHandshake(const JsonValue& msg, FleetHandshake* out);

// Reads and validates the peer's handshake as the first frame on
// `channel` (opened at the handshake cap), then raises the cap to
// kFleetMaxPayload for the rest of the stream; frames already buffered
// behind the handshake stay queued in order. False on timeout, EOF, cap
// violation or a malformed handshake, with `*error` explaining.
bool ReadHandshake(FrameChannel* channel, int timeout_ms, FleetHandshake* out,
                   std::string* error);

}  // namespace fleet
}  // namespace mumak

#endif  // MUMAK_SRC_FLEET_TRANSPORT_H_
