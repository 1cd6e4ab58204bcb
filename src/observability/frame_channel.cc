#include "src/observability/frame_channel.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <cstring>

#include "src/instrument/trace_v3.h"

namespace mumak {
namespace {

// poll() timeout for `deadline`: -1 without one, 0 once it has passed, and
// rounded up otherwise so a sub-millisecond remainder still waits.
int PollTimeoutMs(FrameChannel::Clock::time_point deadline) {
  if (deadline == FrameChannel::kNoDeadline) {
    return -1;
  }
  const auto left = deadline - FrameChannel::Clock::now();
  if (left <= FrameChannel::Clock::duration::zero()) {
    return 0;
  }
  const auto ms = std::chrono::ceil<std::chrono::milliseconds>(left).count();
  return ms > INT_MAX ? INT_MAX : static_cast<int>(ms);
}

}  // namespace

std::string EncodeFrame(const std::string& payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  out.append(reinterpret_cast<const char*>(kFrameMagic), sizeof(kFrameMagic));
  PutU32(&out, static_cast<uint32_t>(payload.size()));
  PutU32(&out, Crc32(payload.data(), payload.size()));
  out += payload;
  return out;
}

void FrameDecoder::Feed(const void* data, size_t size) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  // Compact lazily: only once the consumed prefix dominates the buffer.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes, bytes + size);
}

FrameStatus FrameDecoder::Next(std::string* payload) {
  if (corrupt_ != FrameStatus::kOk) {
    return corrupt_;
  }
  const size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderBytes) {
    return FrameStatus::kNeedMore;
  }
  const uint8_t* head = buffer_.data() + consumed_;
  if (std::memcmp(head, kFrameMagic, sizeof(kFrameMagic)) != 0) {
    corrupt_ = FrameStatus::kBadMagic;
    return corrupt_;
  }
  const uint32_t len = GetU32(head + 4);
  if (len > max_payload_) {
    corrupt_ = FrameStatus::kOversized;
    return corrupt_;
  }
  if (available < kFrameHeaderBytes + len) {
    return FrameStatus::kNeedMore;
  }
  const char* body = reinterpret_cast<const char*>(head + kFrameHeaderBytes);
  if (Crc32(body, len) != GetU32(head + 8)) {
    corrupt_ = FrameStatus::kBadCrc;
    return corrupt_;
  }
  payload->assign(body, len);
  consumed_ += kFrameHeaderBytes + len;
  return FrameStatus::kOk;
}

bool FrameChannel::Send(const std::string& payload) {
  if (fd_ < 0) {
    return false;
  }
  const std::string frame = EncodeFrame(payload);
  size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n =
        ::send(fd_, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

FrameChannel::Receipt FrameChannel::Receive(JsonValue* message,
                                            Clock::time_point deadline) {
  for (;;) {
    std::string payload;
    const FrameStatus status = decoder_.Next(&payload);
    if (status == FrameStatus::kOk) {
      *message = JsonValue();
      return JsonParser(payload).Parse(message) ? Receipt::kMessage
                                                : Receipt::kCorrupt;
    }
    if (status != FrameStatus::kNeedMore) {
      return Receipt::kCorrupt;
    }
    if (fd_ < 0) {
      return Receipt::kClosed;
    }
    pollfd pfd = {fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, PollTimeoutMs(deadline));
    if (ready < 0 && errno != EINTR) {
      return Receipt::kClosed;
    }
    if (ready <= 0) {
      if (ready == 0 && Clock::now() >= deadline) {
        return Receipt::kTimeout;
      }
      continue;
    }
    uint8_t chunk[64 << 10];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n > 0) {
      decoder_.Feed(chunk, static_cast<size_t>(n));
    } else if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK &&
                          errno != EINTR)) {
      return Receipt::kClosed;
    }
  }
}

void FrameChannel::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace mumak
