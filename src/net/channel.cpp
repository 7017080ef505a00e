#include "net/channel.h"

#include <utility>
#include <vector>

namespace noble::net {

Channel::Channel(FrameSocket socket) : sock_(std::move(socket)) {
  reader_ = std::thread([this] { read_loop(); });
}

Channel::~Channel() {
  sock_.shutdown_both();  // the reader observes EOF and drains
  if (reader_.joinable()) reader_.join();
}

bool Channel::call(Frame frame, std::optional<Clock::time_point> deadline,
                   Completion done) {
  {
    // The dead check and the enlist share the lock drain() takes, so no
    // call can slip in behind the drain and wait forever.
    std::lock_guard<std::mutex> lock(pending_mu_);
    if (dead_) return false;
    frame.request_id = next_request_id_++;
    pending_.emplace(frame.request_id, Pending{deadline, std::move(done)});
  }
  bool sent;
  {
    std::lock_guard<std::mutex> lock(send_mu_);
    sent = sock_.send_frame(frame);
  }
  if (sent) return true;
  // Withdraw the call — unless the reader already completed it (a drain or
  // sweep raced the failed send), in which case its completion has run.
  std::lock_guard<std::mutex> lock(pending_mu_);
  return pending_.erase(frame.request_id) == 0;
}

void Channel::read_loop() {
  Clock::time_point next_sweep = Clock::now() + kSweepTick;
  for (;;) {
    const auto left =
        std::chrono::ceil<std::chrono::milliseconds>(next_sweep - Clock::now()).count();
    std::optional<Frame> frame = sock_.recv_frame(left > 0 ? static_cast<int>(left) : 0);
    if (frame) {
      if (frame->type == kErrorType) break;  // the peer is hanging up on us
      settle(std::move(*frame));
    } else if (!sock_.valid()) {
      break;  // EOF, reset, or a malformed stream
    }
    const Clock::time_point now = Clock::now();
    if (now >= next_sweep) {
      expire(now);
      next_sweep = now + kSweepTick;
    }
  }
  drain();
}

void Channel::settle(Frame reply) {
  Completion done;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    const auto it = pending_.find(reply.request_id);
    if (it == pending_.end()) return;  // late or stray: drop, stay up
    done = std::move(it->second.done);
    pending_.erase(it);
  }
  done(Outcome::kReply, std::move(reply));
}

void Channel::expire(Clock::time_point now) {
  std::vector<Completion> expired;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->second.deadline && *it->second.deadline <= now) {
        expired.push_back(std::move(it->second.done));
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (Completion& done : expired) done(Outcome::kExpired, Frame{});
}

void Channel::drain() {
  std::unordered_map<std::uint64_t, Pending> lost;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    dead_ = true;
    lost.swap(pending_);
  }
  for (auto& [id, pending] : lost) {
    (void)id;
    pending.done(Outcome::kLost, Frame{});
  }
}

}  // namespace noble::net
