// Client half of a pipelined request/response conversation — the one
// client-side multiplexer in the tree (cluster spill and the benches'
// gateway load target both ride it): one FrameSocket, one reader thread,
// one send mutex, and a pending map keyed by the request ids the channel
// assigns, so replies may come back in any order.
//
// Each accepted call's completion runs exactly once, on the reader thread:
// with the reply frame; with kExpired once its absolute deadline passes
// first; or with kLost when the peer closes, sends a net::kErrorType frame,
// or the channel is destroyed. The reader never parks longer than
// kSweepTick, which is what lets a connected-but-silent (or byte-dribbling)
// peer's deadlines fire. A reply whose id is not pending — late, after its
// call expired, or never issued — is dropped and the channel stays up.
#ifndef NOBLE_NET_CHANNEL_H_
#define NOBLE_NET_CHANNEL_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

#include "net/frame.h"
#include "net/socket.h"

namespace noble::net {

class Channel {
 public:
  using Clock = std::chrono::steady_clock;

  enum class Outcome {
    kReply,    ///< the peer answered; the frame carries the reply
    kExpired,  ///< the call's deadline passed before any reply
    kLost,     ///< the connection died (EOF, peer kError, destruction)
  };

  /// Runs exactly once per accepted call, on the reader thread. `reply` is
  /// meaningful only for kReply. A completion must not block, and must not
  /// destroy the channel it belongs to.
  using Completion = std::function<void(Outcome outcome, Frame reply)>;

  /// Longest the reader parks between deadline sweeps: a call expires at
  /// most one tick after its deadline.
  static constexpr std::chrono::milliseconds kSweepTick{10};

  /// Takes over a connected socket and starts the reader.
  explicit Channel(FrameSocket socket);
  /// Closes the socket and joins the reader; every pending call completes
  /// with kLost before this returns.
  ~Channel();

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Stamps a fresh request id on `frame`, enlists `done` and sends. False
  /// — and `done` never runs — when the channel is dead (the connection
  /// has died; every later call fails too) or the send fails.
  bool call(Frame frame, std::optional<Clock::time_point> deadline, Completion done);

 private:
  struct Pending {
    std::optional<Clock::time_point> deadline;
    Completion done;
  };

  void read_loop();
  /// Completes the call `reply` answers; a stray id is dropped.
  void settle(Frame reply);
  /// Completes every call whose deadline is at or before `now`.
  void expire(Clock::time_point now);
  /// Marks the channel dead and completes every pending call with kLost.
  void drain();

  FrameSocket sock_;
  std::mutex send_mu_;  ///< whole frames only: senders serialize here

  std::mutex pending_mu_;  ///< guards dead_, next_request_id_ and pending_
  bool dead_ = false;
  std::uint64_t next_request_id_ = 1;
  std::unordered_map<std::uint64_t, Pending> pending_;

  std::thread reader_;
};

}  // namespace noble::net

#endif  // NOBLE_NET_CHANNEL_H_
