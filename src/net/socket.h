// Client half of the shared transport: one connected fd plus the framing
// state (buffered reads, whole-frame sends), bound to the MessageSet of the
// protocol it speaks.
//
// FrameSocket is deliberately dumb: one frame in, one frame out, full
// duplex — one thread may send while another receives (that is how
// net::Channel pipelines), but each direction belongs to exactly one thread
// at a time. The only state the two directions share is the fd and the
// `broken` flag (atomic: either direction may trip it, both read it); the
// read buffer belongs to the receiving thread alone.
//
// recv_frame's timeout bounds the whole call, not each poll: a peer that
// dribbles a frame one byte at a time cannot hold a bounded wait open.
#ifndef NOBLE_NET_SOCKET_H_
#define NOBLE_NET_SOCKET_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "net/frame.h"

namespace noble::net {

class FrameSocket {
 public:
  /// Connects (blocking) to host:port speaking `set`'s protocol; nullopt on
  /// refusal/resolution error. The MessageSet must outlive the socket
  /// (protocol sets are function-local statics, so this is free).
  static std::optional<FrameSocket> connect(const std::string& host,
                                            std::uint16_t port,
                                            const MessageSet& set);

  FrameSocket(FrameSocket&& other) noexcept;
  FrameSocket& operator=(FrameSocket&& other) noexcept;
  FrameSocket(const FrameSocket&) = delete;
  FrameSocket& operator=(const FrameSocket&) = delete;
  ~FrameSocket();

  /// Sends one whole frame (blocking). False when the peer is gone.
  bool send_frame(const Frame& frame);

  /// Receives the next frame, waiting at most `timeout_ms` in total (-1 =
  /// forever). nullopt on timeout, orderly close, or a malformed inbound
  /// frame (the socket is marked invalid for the latter two; a timeout
  /// leaves it usable, with any partial frame kept buffered).
  std::optional<Frame> recv_frame(int timeout_ms = -1);

  /// Half-closes both directions — unblocks a thread parked in recv_frame
  /// (it observes EOF), which is how a reader thread gets stopped.
  void shutdown_both();

  bool valid() const { return fd_ >= 0 && !broken_.load(std::memory_order_relaxed); }

 private:
  FrameSocket(int fd, const MessageSet* set) : fd_(fd), set_(set) {}
  int fd_ = -1;
  const MessageSet* set_ = nullptr;
  std::atomic<bool> broken_{false};
  std::string inbuf_;
};

}  // namespace noble::net

#endif  // NOBLE_NET_SOCKET_H_
