#include "net/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>

namespace noble::net {

std::optional<FrameSocket> FrameSocket::connect(const std::string& host,
                                                std::uint16_t port,
                                                const MessageSet& set) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return FrameSocket(fd, &set);
}

FrameSocket::FrameSocket(FrameSocket&& other) noexcept
    : fd_(other.fd_),
      set_(other.set_),
      broken_(other.broken_.load(std::memory_order_relaxed)),
      inbuf_(std::move(other.inbuf_)) {
  other.fd_ = -1;
}

FrameSocket& FrameSocket::operator=(FrameSocket&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    set_ = other.set_;
    broken_.store(other.broken_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    inbuf_ = std::move(other.inbuf_);
    other.fd_ = -1;
  }
  return *this;
}

FrameSocket::~FrameSocket() {
  if (fd_ >= 0) ::close(fd_);
}

bool FrameSocket::send_frame(const Frame& frame) {
  if (!valid()) return false;
  const std::string bytes = encode_frame(frame);
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    broken_.store(true, std::memory_order_relaxed);
    return false;
  }
  return true;
}

std::optional<Frame> FrameSocket::recv_frame(int timeout_ms) {
  using Clock = std::chrono::steady_clock;
  if (!valid()) return std::nullopt;
  const Clock::time_point deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    Frame frame;
    switch (decode_frame(*set_, inbuf_, frame)) {
      case DecodeResult::kFrame:
        return frame;
      case DecodeResult::kMalformed:
        broken_.store(true, std::memory_order_relaxed);
        return std::nullopt;
      case DecodeResult::kNeedMore:
        break;
    }
    // Each poll waits only for what is left of the call's budget.
    const auto left =
        std::chrono::ceil<std::chrono::milliseconds>(deadline - Clock::now()).count();
    const int wait_ms = timeout_ms < 0 ? -1 : left > 0 ? static_cast<int>(left) : 0;
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, wait_ms);
    if (ready == 0) return std::nullopt;  // timeout; socket stays usable
    if (ready < 0) {
      if (errno == EINTR) continue;
      broken_.store(true, std::memory_order_relaxed);
      return std::nullopt;
    }
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n > 0) {
      inbuf_.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // Orderly close or hard error: no more frames will come.
    broken_.store(true, std::memory_order_relaxed);
    return std::nullopt;
  }
}

void FrameSocket::shutdown_both() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

}  // namespace noble::net
