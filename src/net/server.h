// Server half of the shared transport: the accept/poll/framing machinery
// extracted from the gateway listener so every frame protocol in the tree
// (gateway client traffic, cluster heartbeats and spill RPC) runs the same
// loop instead of re-implementing it.
//
//   peers ══ TCP, net::Frame ══▶ accept loop ──▶ handler 0 ─ conns…
//                                  (round-robin)  handler 1 ─ conns…
//                                                    │
//                                        FrameHandler::on_frame / on_service
//
// The FrameServer owns sockets, buffers and framing; the FrameHandler owns
// meaning. Per connection the server keeps a read buffer (bytes -> frames),
// a write buffer (frames -> bytes, flushed as the socket drains) and the
// handler's opaque per-connection state. Responses are whatever the handler
// send()s, in whatever order it settles them — the transport never imposes
// request order.
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

  /// Protocol-defined per-connection state (in-flight windows, sticky
  /// sessions). The handler allocates it on first use; it is destroyed with
  /// the connection, after on_close.
  std::shared_ptr<void> user;

 private:
  friend class FrameServer;
  ServerConn(int fd, FrameServer* server) : fd_(fd), server_(server) {}
  int fd_;
  FrameServer* server_;
  std::string inbuf_;
  std::string outbuf_;
  bool closing_ = false;
  bool busy_ = false;  ///< last on_service verdict; drives the poll timeout
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

  /// Called once per poll pass per connection (frames or not): settle
  /// pending futures, emit responses. Return true while the connection has
  /// pending work — the poll loop then spins at a 200us timeout instead of
  /// blocking (the engine has no way to kick a socket thread).
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
    int wake_read_fd = -1, wake_write_fd = -1;
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
