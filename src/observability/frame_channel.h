// MFL1, the one framed channel every process boundary uses: the fleet
// (scheduler <-> forked and TCP workers, the handshake and the bootstrap),
// `mumak serve` (daemon <-> submit/status clients) and the recovery
// sandbox (a worker's span and verdict replies). Every frame is
//
//   u32 magic 'M''F''L''1' | u32 payload_len | u32 crc32(payload) | payload
//
// with little-endian integers, the IEEE CRC-32 (Crc32, shared with the MJN1
// journal and the v3 trace) and one flat-JSON object as the payload. Frames
// arrive in arbitrary chunks over SOCK_STREAM; a torn tail is an incomplete
// frame (the peer died mid-write), while a bad magic, a length over the
// channel's cap or a CRC mismatch marks the stream corrupt for good — the
// reader drops the peer. docs/fleet.md is the wire spec.

#ifndef MUMAK_SRC_OBSERVABILITY_FRAME_CHANNEL_H_
#define MUMAK_SRC_OBSERVABILITY_FRAME_CHANNEL_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/observability/flat_json.h"

namespace mumak {

inline constexpr uint8_t kFrameMagic[4] = {'M', 'F', 'L', '1'};
inline constexpr size_t kFrameHeaderBytes = 12;

// Encodes one MFL1 frame around `payload`.
std::string EncodeFrame(const std::string& payload);

enum class FrameStatus {
  kOk,         // one payload extracted
  kNeedMore,   // incomplete frame buffered; feed more bytes
  kBadMagic,   // stream corrupt: header does not start with MFL1
  kOversized,  // stream corrupt: declared length over the cap
  kBadCrc,     // stream corrupt: payload checksum mismatch
};

// Incremental decoder for one stream. Once a frame fails to decode the
// stream is sticky-corrupt: Next() keeps returning the error, and clean
// bytes fed afterwards never resynchronise it.
class FrameDecoder {
 public:
  explicit FrameDecoder(uint32_t max_payload) : max_payload_(max_payload) {}

  // Applies from the next frame on: a TCP channel raises its cap once the
  // handshake has been decoded, frames buffered behind it included.
  void set_max_payload(uint32_t max_payload) { max_payload_ = max_payload; }

  void Feed(const void* data, size_t size);

  // Extracts the next complete payload into `payload`.
  FrameStatus Next(std::string* payload);

  bool corrupt() const { return corrupt_ != FrameStatus::kOk; }

 private:
  std::vector<uint8_t> buffer_;
  size_t consumed_ = 0;
  uint32_t max_payload_;
  FrameStatus corrupt_ = FrameStatus::kOk;
};

// One framed stream socket to a peer: owns the fd and its decoder. Send
// and Receive are EINTR-safe and never raise SIGPIPE.
class FrameChannel {
 public:
  using Clock = std::chrono::steady_clock;
  // Receive deadline that waits for as long as it takes.
  static constexpr Clock::time_point kNoDeadline = Clock::time_point::max();

  enum class Receipt {
    kMessage,  // one message decoded
    kTimeout,  // no complete frame by the deadline
    kClosed,   // the peer hung up (EOF or a hard socket error)
    kCorrupt,  // the stream broke framing, or a payload is not JSON
  };

  FrameChannel(int fd, uint32_t max_payload)
      : fd_(fd), decoder_(max_payload) {}
  ~FrameChannel() { Close(); }
  FrameChannel(const FrameChannel&) = delete;
  FrameChannel& operator=(const FrameChannel&) = delete;

  int fd() const { return fd_; }
  bool ok() const { return fd_ >= 0; }
  void set_max_payload(uint32_t max_payload) {
    decoder_.set_max_payload(max_payload);
  }

  // Frames `payload` and writes all of it. False when the peer is gone.
  bool Send(const std::string& payload);

  // Hands out the next message, oldest first. A frame already buffered is
  // decoded without touching the socket; only when none is left does it
  // wait for bytes, until `deadline` — a deadline in the past still takes
  // whatever is readable now. Frames that arrived before a hangup are all
  // handed out before kClosed.
  Receipt Receive(JsonValue* message, Clock::time_point deadline);

  void Close();

 private:
  int fd_;
  FrameDecoder decoder_;
};

}  // namespace mumak

#endif  // MUMAK_SRC_OBSERVABILITY_FRAME_CHANNEL_H_
