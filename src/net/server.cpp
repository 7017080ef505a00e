#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/trace.h"

namespace noble::net {

namespace {

bool set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

Waker::Waker() : fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {}

Waker::~Waker() {
  if (fd_ >= 0) ::close(fd_);
}

void Waker::notify() {
  if (kicked_.exchange(true, std::memory_order_acq_rel)) return;
  const std::uint64_t one = 1;
  (void)!::write(fd_, &one, sizeof one);
}

std::uint64_t Waker::reset() {
  std::uint64_t writes = 0;
  if (::read(fd_, &writes, sizeof writes) != sizeof writes) writes = 0;
  // An exchange, not a store: reading the flag a notify set makes that
  // notify's settled work visible to the pass that follows.
  kicked_.exchange(false, std::memory_order_acq_rel);
  return writes;
}

void ServerConn::send(const Frame& frame) {
  outbuf_ += encode_frame(frame);
  server_->frames_sent_.inc();
}

void ServerConn::fail(std::uint64_t request_id, std::string_view reason) {
  Frame reply;
  reply.type = kErrorType;
  reply.request_id = request_id;
  reply.body = encode_text_body(reason);
  send(reply);
  closing_ = true;
}

FrameServer::FrameServer(FrameHandler& handler, ServerConfig config)
    : handler_(handler), config_(std::move(config)) {}

FrameServer::~FrameServer() { stop(); }

bool FrameServer::start() {
  if (running_.load(std::memory_order_acquire)) return true;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1 ||
      ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listen_fd_, config_.listen_backlog) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  port_ = ntohs(bound.sin_port);

  handlers_.clear();
  const std::size_t threads = config_.threads == 0 ? 1 : config_.threads;
  for (std::size_t i = 0; i < threads; ++i) {
    auto handler = std::make_unique<HandlerThread>();
    if (handler->waker->fd() < 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      handlers_.clear();
      return false;
    }
    handlers_.push_back(std::move(handler));
  }
  running_.store(true, std::memory_order_release);
  for (auto& handler : handlers_) {
    handler->thread = std::thread([this, &h = *handler] { handler_loop(h); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void FrameServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Unpark a blocked accept-poll, but leave the fd itself alone until the
  // accept thread is joined: closing (and overwriting) it here would race
  // the poll()/accept() calls still using it.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  for (auto& handler : handlers_) handler->waker->notify();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (auto& handler : handlers_) {
    if (handler->thread.joinable()) handler->thread.join();
    // Adopt-queue stragglers the handler never saw still need closing.
    for (const int fd : handler->incoming) ::close(fd);
    handler->incoming.clear();
  }
  handlers_.clear();
}

void FrameServer::accept_loop() {
  std::size_t next_handler = 0;
  while (running_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (!running_.load(std::memory_order_acquire)) break;
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    if (connections_open_.value() >= config_.max_connections) {
      connections_rejected_.inc();
      ::close(fd);
      continue;
    }
    if (!set_nonblocking(fd)) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    // Frames are small and latency is the product; never Nagle-delay them.
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    connections_accepted_.inc();
    connections_open_.inc();
    HandlerThread& handler = *handlers_[next_handler];
    next_handler = (next_handler + 1) % handlers_.size();
    {
      std::lock_guard<std::mutex> lock(handler.mu);
      handler.incoming.push_back(fd);
    }
    handler.waker->notify();
  }
}

void FrameServer::handler_loop(HandlerThread& handler) {
  std::vector<std::unique_ptr<ServerConn>> conns;
  std::vector<pollfd> pfds;
  while (running_.load(std::memory_order_acquire)) {
    pfds.clear();
    pfds.push_back(pollfd{handler.waker->fd(), POLLIN, 0});
    for (const auto& conn : conns) {
      short events = POLLIN;
      if (!conn->outbuf_.empty()) events |= POLLOUT;
      pfds.push_back(pollfd{conn->fd_, events, 0});
    }
    // Block until a socket is ready or the waker fires: adoption, stop()
    // and every settled hand-off (engine batch, spill reply) notify it, so
    // pending work never needs a timed re-poll.
    ::ppoll(pfds.data(), pfds.size(), nullptr, nullptr);
    if (!running_.load(std::memory_order_acquire)) break;

    // Drain, then clear, then service: a notify that lands after the reset
    // re-arms the fd for the next ppoll, and one that lands before it is
    // covered by this pass's on_service.
    if (pfds[0].revents & POLLIN) handler.waker->reset();
    {
      std::lock_guard<std::mutex> lock(handler.mu);
      for (const int fd : handler.incoming) {
        conns.push_back(
            std::unique_ptr<ServerConn>(new ServerConn(fd, this, handler.waker)));
      }
      handler.incoming.clear();
    }

    for (std::size_t i = 0; i < conns.size();) {
      ServerConn& conn = *conns[i];
      // pfds[0] is the waker; connection i sat at pfds[i + 1] — but
      // adoption above may have grown conns past pfds, so guard the index.
      const short revents = i + 1 < pfds.size() ? pfds[i + 1].revents : 0;
      bool alive = (revents & (POLLERR | POLLNVAL)) == 0;
      if (alive && (revents & (POLLIN | POLLHUP))) alive = handle_readable(conn);
      if (alive) conn.pending_ = handler_.on_service(conn);
      if (alive && !conn.outbuf_.empty()) alive = flush_writes(conn);
      if (alive && conn.outbuf_.size() > config_.max_write_buffer) alive = false;
      if (alive && conn.closing_ && conn.outbuf_.empty() && !conn.pending_) {
        alive = false;
      }
      if (!alive) {
        close_connection(conn);
        conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(i));
        // pfds is now stale relative to conns; process remaining entries
        // with no revents this pass (the next loop iteration re-polls, and
        // level-triggered readiness reports them again).
        pfds.clear();
      } else {
        ++i;
      }
    }
  }
  for (auto& conn : conns) close_connection(*conn);
}

bool FrameServer::handle_readable(ServerConn& conn) {
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::read(conn.fd_, chunk, sizeof chunk);
    if (n > 0) {
      conn.inbuf_.append(chunk, static_cast<std::size_t>(n));
      if (conn.inbuf_.size() > config_.max_frame_bytes + sizeof(std::uint32_t)) break;
      continue;
    }
    if (n == 0) return false;  // orderly EOF
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }
  // One clock read stamps arrival for every frame parsed out of this read
  // pass — the bytes were all on the socket together, so they share an
  // arrival instant. 0 (stamping off) skips trace creation downstream.
  const std::uint64_t recv_ns =
      handler_.stamp_arrivals() ? obs::Trace::now_ns() : 0;
  while (!conn.closing_) {
    Frame frame;
    std::string error;
    switch (decode_frame(handler_.message_set(), conn.inbuf_, frame,
                         config_.max_frame_bytes, &error)) {
      case DecodeResult::kNeedMore:
        return true;
      case DecodeResult::kMalformed: {
        malformed_frames_.inc();
        // One error frame, then close: there is no resync point in a
        // length-prefixed stream once the prefix itself is untrusted.
        conn.fail(0, error);
        return true;
      }
      case DecodeResult::kFrame:
        frames_received_.inc();
        if (!handler_.on_frame(conn, std::move(frame), recv_ns)) return false;
        break;
    }
  }
  return true;
}

bool FrameServer::flush_writes(ServerConn& conn) {
  while (!conn.outbuf_.empty()) {
    const ssize_t n =
        ::send(conn.fd_, conn.outbuf_.data(), conn.outbuf_.size(), MSG_NOSIGNAL);
    if (n > 0) {
      conn.outbuf_.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

void FrameServer::close_connection(ServerConn& conn) {
  if (conn.fd_ < 0) return;
  handler_.on_close(conn);
  ::close(conn.fd_);
  conn.fd_ = -1;
  connections_open_.sub();
}

ServerCounters FrameServer::counters() const {
  ServerCounters out;
  out.connections_accepted = connections_accepted_.value();
  out.connections_open = connections_open_.value();
  out.connections_rejected = connections_rejected_.value();
  out.frames_received = frames_received_.value();
  out.frames_sent = frames_sent_.value();
  out.malformed_frames = malformed_frames_.value();
  return out;
}

}  // namespace noble::net
