// Server half of the shared transport: the accept/poll/framing machinery
// extracted from the gateway listener so every frame protocol in the tree
// (gateway client traffic, cluster heartbeats and spill RPC) runs the same
// loop instead of re-implementing it.
//
//   peers ══ TCP, net::Frame ══▶ accept loop ──▶ handler 0 ─ conns…
//                                  (round-robin)  handler 1 ─ conns…
//                                                  │     ▲
//                       FrameHandler::on_frame / ◀─┘     └─ Waker ◀─ settled
//                                      on_service                    hand-offs
//
// The FrameServer owns sockets, buffers and framing; the FrameHandler owns
// meaning. Per connection the server keeps a read buffer (bytes -> frames),
// a write buffer (frames -> bytes, flushed as the socket drains) and the
// handler's opaque per-connection state. Responses are whatever the handler
// send()s, in whatever order it settles them — the transport never imposes
// request order.
//
// Handler threads are completion-driven: each blocks in ppoll with no
// timeout until a socket is ready or its Waker fires. Work a handler hands
// elsewhere (an engine future, a spill RPC) carries the connection's
// notifier(); whoever settles that work calls it, and the handler thread
// wakes to run on_service. Nothing re-polls on a timer.
//
// The defensive-decode contract lives here, once: a frame that fails
// decode_frame against the handler's MessageSet answers with one kError
// frame (net::kErrorType + text body naming the violation) and closes the
// connection after the flush — there is no resync point in a
// length-prefixed stream once the prefix itself is untrusted.
#ifndef NOBLE_NET_SERVER_H_
#define NOBLE_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "obs/metrics.h"

namespace noble::net {

struct ServerConfig {
  /// TCP port to bind; 0 picks an ephemeral port (FrameServer::port()
  /// reports the actual one — what tests and self-hosted benches want).
  std::uint16_t port = 0;
  /// Bind address. Loopback by default: this is a demo fleet, not an
  /// internet-facing deployment.
  std::string bind_address = "127.0.0.1";
  /// Connection-handler threads; each multiplexes its share of connections.
  std::size_t threads = 2;
  /// Accepted connections beyond this are closed immediately.
  std::size_t max_connections = 256;
  /// Frames with a larger length prefix are malformed (connection closes).
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Bytes of pending response data before a connection is declared too
  /// slow and closed (it is not reading what we send).
  std::size_t max_write_buffer = 4u << 20;
  int listen_backlog = 64;
};

class FrameServer;

/// Wakes one handler thread from any thread: an atomic "kicked" flag over an
/// eventfd. notify() writes the fd only when it flips the flag false -> true,
/// so a burst of notifies costs one syscall; the handler's reset() drains
/// the fd and then clears the flag, in that order — a notify landing
/// between the two finds the flag still set and skips its write, and the
/// pass that follows reset() still sees the work it announced.
///
/// Held by shared_ptr and owning its fd: a notifier that outlives the
/// server (an engine settling a future after stop()) writes to this waker's
/// own open fd, never a closed or reused one.
class Waker {
 public:
  Waker();
  ~Waker();
  Waker(const Waker&) = delete;
  Waker& operator=(const Waker&) = delete;

  /// Lock-free and non-blocking: safe from engine workers and channel
  /// readers, and from the handler thread itself.
  void notify();
  /// Handler side: drains the fd, then clears the flag. Returns the number
  /// of fd writes drained (0 when the wake came from elsewhere).
  std::uint64_t reset();
  /// Pollable: readable while a wake is pending.
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::atomic<bool> kicked_{false};
};

/// One live connection as the protocol handler sees it. Only valid inside
/// the handler callbacks (the owning handler thread); never retained.
class ServerConn {
 public:
  /// Encodes `frame` into the write buffer; the poll loop flushes it as the
  /// socket drains.
  void send(const Frame& frame);

  /// The one-error-frame contract: sends a kError frame naming `reason`
  /// (echoing `request_id`), then closes after the flush.
  void fail(std::uint64_t request_id, std::string_view reason);

  /// Flush the write buffer and pending work, then close. The poll loop
  /// keeps servicing the connection (on_service still runs) until both the
  /// buffer and the handler's pending work drain.
  void close_after_flush() { closing_ = true; }
  bool closing() const { return closing_; }

  /// This connection's handler-thread waker. Outlives the connection and
  /// the server for as long as a holder keeps it.
  const std::shared_ptr<Waker>& waker() const { return waker_; }
  /// waker()->notify() as a callable: what a handler passes as the notifier
  /// of work it hands off (engine::SubmitOptions::notify).
  std::function<void()> notifier() const {
    return [waker = waker_] { waker->notify(); };
  }

  /// Protocol-defined per-connection state (in-flight windows, sticky
  /// sessions). The handler allocates it on first use; it is destroyed with
  /// the connection, after on_close.
  std::shared_ptr<void> user;

 private:
  friend class FrameServer;
  ServerConn(int fd, FrameServer* server, std::shared_ptr<Waker> waker)
      : fd_(fd), server_(server), waker_(std::move(waker)) {}
  int fd_;
  FrameServer* server_;
  std::shared_ptr<Waker> waker_;
  std::string inbuf_;
  std::string outbuf_;
  bool closing_ = false;
  /// Last on_service verdict. Only keeps a closing connection open until
  /// its pending work is answered; it never schedules a pass.
  bool pending_ = false;
};

/// Transport-level counters (what only the socket layer can see; protocol
/// counters live in the handler).
struct ServerCounters {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_open = 0;  ///< gauge
  std::uint64_t connections_rejected = 0;  ///< over max_connections
  std::uint64_t frames_received = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t malformed_frames = 0;  ///< framing-level decode failures
};

/// Protocol half of the server. Callbacks run on handler threads, one
/// thread per connection at a time (a connection never migrates mid-pass).
class FrameHandler {
 public:
  virtual ~FrameHandler() = default;

  /// The protocol's message vocabulary; inbound frames are validated
  /// against it before on_frame sees them.
  virtual const MessageSet& message_set() const = 0;

  /// One decoded frame. `recv_ns` is the arrival stamp of the read pass
  /// that carried it (0 unless stamp_arrivals()). Return false to close
  /// the connection immediately (protocol violations that want the
  /// one-error-frame path call conn.fail() and return true).
  virtual bool on_frame(ServerConn& conn, Frame frame, std::uint64_t recv_ns) = 0;

  /// Called once per pass of the handler thread per connection (frames or
  /// not): settle ready futures, emit responses. A pass runs when a socket
  /// is ready or the thread's Waker fires, so work handed off must carry
  /// conn.notifier() and have it called once settled — otherwise its answer
  /// waits for unrelated traffic. Return true while work is still pending:
  /// that only keeps a closing connection open until it is answered.
  virtual bool on_service(ServerConn& conn) {
    (void)conn;
    return false;
  }

  /// The connection is going away (peer loss, violation, server stop):
  /// release protocol state (sticky sessions etc.). conn.user is still set.
  virtual void on_close(ServerConn& conn) { (void)conn; }

  /// True => the server stamps one steady-clock read per read pass and
  /// passes it to on_frame (request tracing); false skips the clock read.
  virtual bool stamp_arrivals() const { return false; }
};

class FrameServer {
 public:
  /// The handler must outlive the server. Construction does not touch the
  /// network; start() does.
  FrameServer(FrameHandler& handler, ServerConfig config = {});
  ~FrameServer();

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Binds, listens and spawns the accept + handler threads. False (with
  /// the OS error in errno) when the socket cannot be bound.
  bool start();

  /// Stops accepting, wakes every handler, closes every connection (with
  /// on_close) and joins. Idempotent; the destructor calls it — but owners
  /// whose handler state dies before the server member must call stop()
  /// in their own destructor first.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// Actual bound port (resolves port 0 after start()).
  std::uint16_t port() const { return port_; }
  const ServerConfig& config() const { return config_; }

  ServerCounters counters() const;

 private:
  friend class ServerConn;

  struct HandlerThread {
    std::mutex mu;              ///< guards the handoff queue
    std::vector<int> incoming;  ///< accepted fds awaiting adoption
    /// Kicked by adoption, stop() and every settled hand-off of its
    /// connections.
    std::shared_ptr<Waker> waker = std::make_shared<Waker>();
    std::thread thread;
  };

  void accept_loop();
  void handler_loop(HandlerThread& handler);
  /// Drains readable bytes and parses frames; false = close the connection.
  bool handle_readable(ServerConn& conn);
  /// Non-blocking flush of the write buffer; false = peer gone.
  bool flush_writes(ServerConn& conn);
  void close_connection(ServerConn& conn);

  FrameHandler& handler_;
  ServerConfig config_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::vector<std::unique_ptr<HandlerThread>> handlers_;
  std::thread accept_thread_;

  /// obs::Counter members (thread-striped): handler threads increment
  /// without sharing lines, and ServerCounters stays the struct view.
  /// connections_open_ is a level worn as a counter (inc on accept, sub on
  /// close) — the mod-2^64 stripe sum keeps it exact.
  obs::Counter connections_accepted_;
  obs::Counter connections_open_;
  obs::Counter connections_rejected_;
  obs::Counter frames_received_;
  obs::Counter frames_sent_;
  obs::Counter malformed_frames_;
};

}  // namespace noble::net

#endif  // NOBLE_NET_SERVER_H_
