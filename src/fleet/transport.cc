#include "src/fleet/transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace mumak {
namespace fleet {
namespace {

// Parses "host:port" / ":port" / "port". False on a malformed port.
bool SplitHostPort(const std::string& address, std::string* host,
                   uint16_t* port, std::string* error) {
  const size_t colon = address.rfind(':');
  const std::string port_text =
      colon == std::string::npos ? address : address.substr(colon + 1);
  *host = colon == std::string::npos ? std::string() : address.substr(0, colon);
  if (port_text.empty()) {
    *error = "address '" + address + "' has no port";
    return false;
  }
  uint32_t value = 0;
  for (const char c : port_text) {
    if (c < '0' || c > '9') {
      *error = "address '" + address + "' has a non-numeric port";
      return false;
    }
    value = value * 10 + static_cast<uint32_t>(c - '0');
    if (value > 65535) {
      *error = "address '" + address + "' port out of range";
      return false;
    }
  }
  *port = static_cast<uint16_t>(value);
  return true;
}

bool FillInetAddr(const std::string& host, uint16_t port, bool listen_side,
                  sockaddr_in* addr, std::string* error) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  std::string name = host;
  if (name.empty()) {
    name = listen_side ? "0.0.0.0" : "127.0.0.1";
  } else if (name == "localhost") {
    name = "127.0.0.1";
  }
  if (::inet_pton(AF_INET, name.c_str(), &addr->sin_addr) != 1) {
    *error = "cannot parse IPv4 host '" + name + "'";
    return false;
  }
  return true;
}

}  // namespace

int TcpListen(const std::string& address, std::string* error) {
  std::string host;
  uint16_t port = 0;
  if (!SplitHostPort(address, &host, &port, error)) {
    return -1;
  }
  sockaddr_in addr;
  if (!FillInetAddr(host, port, /*listen_side=*/true, &addr, error)) {
    return -1;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 64) != 0) {
    *error = "cannot listen on '" + address + "': " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

uint16_t TcpBoundPort(int listener_fd) {
  sockaddr_in addr;
  socklen_t len = sizeof(addr);
  if (::getsockname(listener_fd, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

std::unique_ptr<FrameChannel> TcpAccept(int listener_fd) {
  for (;;) {
    const int fd = ::accept(listener_fd, nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return std::make_unique<FrameChannel>(fd, kFleetMaxHandshakeBytes);
    }
    if (errno == EINTR) {
      continue;
    }
    return nullptr;
  }
}

std::unique_ptr<FrameChannel> TcpConnect(const std::string& address,
                                         std::string* error) {
  std::string host;
  uint16_t port = 0;
  if (!SplitHostPort(address, &host, &port, error)) {
    return nullptr;
  }
  sockaddr_in addr;
  if (!FillInetAddr(host, port, /*listen_side=*/false, &addr, error)) {
    return nullptr;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return nullptr;
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    *error = "cannot connect to '" + address + "': " + std::strerror(errno);
    ::close(fd);
    return nullptr;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::make_unique<FrameChannel>(fd, kFleetMaxHandshakeBytes);
}

std::string HandshakeMessage(const FleetHandshake& hs) {
  return JsonObject()
      .Str("type", "handshake")
      .U64("proto", hs.proto)
      .Str("role", hs.role)
      .U64("worker", hs.worker)
      .Hex64("fingerprint", hs.fingerprint)
      .Finish();
}

bool ParseHandshake(const JsonValue& msg, FleetHandshake* out) {
  if (msg.Str("type") != "handshake") {
    return false;
  }
  out->proto = static_cast<uint32_t>(msg.U64("proto"));
  out->role = msg.Str("role");
  out->worker = static_cast<uint32_t>(msg.U64("worker"));
  out->fingerprint = msg.Hex64("fingerprint");
  return true;
}

bool ReadHandshake(FrameChannel* channel, int timeout_ms, FleetHandshake* out,
                   std::string* error) {
  JsonValue msg;
  switch (channel->Receive(&msg, FrameChannel::Clock::now() +
                                     std::chrono::milliseconds(timeout_ms))) {
    case FrameChannel::Receipt::kMessage:
      break;
    case FrameChannel::Receipt::kTimeout:
      *error = "timed out waiting for the peer handshake";
      return false;
    case FrameChannel::Receipt::kClosed:
      *error = "peer hung up before completing the handshake";
      return false;
    case FrameChannel::Receipt::kCorrupt:
      *error = "handshake frame is corrupt or over the handshake length cap";
      return false;
  }
  if (!ParseHandshake(msg, out)) {
    *error = "first frame is not a handshake";
    return false;
  }
  channel->set_max_payload(kFleetMaxPayload);
  return true;
}

}  // namespace fleet
}  // namespace mumak
