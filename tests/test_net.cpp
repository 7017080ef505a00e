// Transport tests: FrameSocket's whole-call receive timeout and its
// send/receive flag sharing, net::Channel — the pipelined client — against
// adversarial loopback peers (silent, byte-dribbling, out-of-order, stray
// ids, kError, close) and its own destruction, and the FrameServer's
// completion-driven handler loop (a settled hand-off wakes it through the
// connection's Waker; nothing re-polls on a timer). Every Channel case
// checks the contract the serving path relies on: each accepted call's
// completion runs exactly once, and a call with a deadline resolves within
// deadline + one sweep tick + scheduling slack.
//
// The suite carries the `concurrency` CTest label: FrameServer handler
// threads, channel readers, dribbling peers, settler threads and callers
// interleave here.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/channel.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/socket.h"

namespace noble::net {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;
using Outcome = Channel::Outcome;

/// Scheduling allowance on top of every timing bound (sanitizer builds run
/// this suite on a loaded machine).
constexpr auto kSlack = 200ms;

constexpr std::uint32_t kRequest = 1;
constexpr std::uint32_t kReply = 2;

const MessageSet& test_set() {
  static const MessageSet set("net-test", {{kRequest, "request"},
                                           {kReply, "reply"},
                                           {kErrorType, "error"}});
  return set;
}

Frame request(std::string body) {
  Frame frame;
  frame.type = kRequest;
  frame.body = std::move(body);
  return frame;
}

Frame reply_to(const Frame& req) {
  Frame frame;
  frame.type = kReply;
  frame.request_id = req.request_id;
  frame.body = req.body;
  return frame;
}

// ---------------------------------------------------------------------------
// Peers.
// ---------------------------------------------------------------------------

/// A bare listening socket for peers that must misbehave below the framing
/// layer (dribbling bytes, closing mid-stream).
class RawListener {
 public:
  RawListener() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
    EXPECT_EQ(::listen(fd_, 4), 0);
    socklen_t len = sizeof addr;
    EXPECT_EQ(::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    port_ = ntohs(addr.sin_port);
  }
  ~RawListener() { ::close(fd_); }
  RawListener(const RawListener&) = delete;
  RawListener& operator=(const RawListener&) = delete;

  std::uint16_t port() const { return port_; }

  /// The next accepted connection's fd, or -1 after 5 s.
  int accept_one() {
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 5000) <= 0) return -1;
    return ::accept(fd_, nullptr, nullptr);
  }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Writes a frame that never completes, one byte every 5 ms, for at most
/// two seconds (or until destroyed). Owns and closes `fd`.
class Dribbler {
 public:
  explicit Dribbler(int fd) : fd_(fd) {
    const std::string bytes = encode_frame(request(std::string(4096, 'x')));
    thread_ = std::thread([this, bytes] {
      const auto until = Clock::now() + 2s;
      for (std::size_t i = 0; i + 1 < bytes.size() && !stop_.load() && Clock::now() < until;
           ++i) {
        if (::send(fd_, bytes.data() + i, 1, MSG_NOSIGNAL) != 1) return;
        std::this_thread::sleep_for(5ms);
      }
    });
  }
  ~Dribbler() {
    stop_.store(true);
    thread_.join();
    ::close(fd_);
  }
  Dribbler(const Dribbler&) = delete;
  Dribbler& operator=(const Dribbler&) = delete;

 private:
  int fd_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// A FrameServer peer whose behavior is one callback per inbound frame.
/// Returning false closes the connection at once (no error frame).
class FakePeer final : public FrameHandler {
 public:
  using OnFrame = std::function<bool(ServerConn&, Frame)>;

  explicit FakePeer(OnFrame on_frame) : on_frame_(std::move(on_frame)) {
    EXPECT_TRUE(server_.start());
  }
  ~FakePeer() override { server_.stop(); }

  std::uint16_t port() const { return server_.port(); }

  const MessageSet& message_set() const override { return test_set(); }
  bool on_frame(ServerConn& conn, Frame frame, std::uint64_t) override {
    return on_frame_(conn, std::move(frame));
  }

 private:
  OnFrame on_frame_;
  FrameServer server_{*this};
};

/// Requests a FakePeer holds back on one connection.
std::vector<Frame>& held(ServerConn& conn) {
  if (!conn.user) conn.user = std::make_shared<std::vector<Frame>>();
  return *static_cast<std::vector<Frame>*>(conn.user.get());
}

std::unique_ptr<Channel> open_channel(std::uint16_t port) {
  std::optional<FrameSocket> sock = FrameSocket::connect("127.0.0.1", port, test_set());
  EXPECT_TRUE(sock.has_value());
  if (!sock) return nullptr;
  return std::make_unique<Channel>(std::move(*sock));
}

// ---------------------------------------------------------------------------
// Completion recorder: counts runs per call, keeps the last outcome.
// ---------------------------------------------------------------------------

class Recorder {
 public:
  struct Entry {
    int runs = 0;
    Outcome outcome = Outcome::kLost;
    std::string body;
    Clock::time_point at{};
  };

  explicit Recorder(std::size_t calls) : entries_(calls) {}

  Channel::Completion completion(std::size_t index) {
    return [this, index](Outcome outcome, Frame reply) {
      std::lock_guard<std::mutex> lock(mu_);
      Entry& entry = entries_[index];
      ++entry.runs;
      entry.outcome = outcome;
      entry.body = std::move(reply.body);
      entry.at = Clock::now();
      cv_.notify_all();
    };
  }

  /// True once `count` distinct calls have completed (within 5 s).
  bool wait_completed(std::size_t count) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, 5s, [&] { return completed_locked() >= count; });
  }

  Entry entry(std::size_t index) {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_[index];
  }

  /// Every call completed exactly once — checked again after a few sweep
  /// ticks, so a late second run would show.
  void expect_each_ran_once() {
    std::this_thread::sleep_for(Channel::kSweepTick * 3);
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      EXPECT_EQ(entries_[i].runs, 1) << "call " << i;
    }
  }

 private:
  std::size_t completed_locked() const {
    std::size_t n = 0;
    for (const Entry& entry : entries_) n += entry.runs > 0 ? 1 : 0;
    return n;
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Entry> entries_;
};

// ---------------------------------------------------------------------------
// FrameSocket.
// ---------------------------------------------------------------------------

TEST(FrameSocket, RecvTimeoutBoundsTheWholeCallAgainstADribblingPeer) {
  RawListener listener;
  std::optional<FrameSocket> sock =
      FrameSocket::connect("127.0.0.1", listener.port(), test_set());
  ASSERT_TRUE(sock.has_value());
  const int peer = listener.accept_one();
  ASSERT_GE(peer, 0);
  Dribbler dribbler(peer);
  const auto start = Clock::now();
  const std::optional<Frame> frame = sock->recv_frame(100);
  const auto elapsed = Clock::now() - start;
  EXPECT_FALSE(frame.has_value());
  EXPECT_GE(elapsed, 100ms);
  EXPECT_LT(elapsed, 100ms + kSlack) << "each byte must not re-arm the timeout";
  EXPECT_TRUE(sock->valid()) << "a timeout leaves the socket usable";
}

TEST(FrameSocket, SendRacingAReaderAtEofIsClean) {
  RawListener listener;
  std::optional<FrameSocket> sock =
      FrameSocket::connect("127.0.0.1", listener.port(), test_set());
  ASSERT_TRUE(sock.has_value());
  const int peer = listener.accept_one();
  ASSERT_GE(peer, 0);
  // One thread sends until the socket breaks while another sits in
  // recv_frame and observes the peer's close: both directions trip and
  // read the shared broken flag.
  std::atomic<bool> sender_done{false};
  std::thread sender([&] {
    const Frame ping = request("ping");
    const auto until = Clock::now() + 5s;
    while (Clock::now() < until && sock->send_frame(ping)) {
    }
    sender_done.store(true);
  });
  std::optional<Frame> received;
  std::thread reader([&] { received = sock->recv_frame(5000); });
  std::this_thread::sleep_for(20ms);
  ::close(peer);
  reader.join();
  sender.join();
  EXPECT_FALSE(received.has_value());
  EXPECT_TRUE(sender_done.load());
  EXPECT_FALSE(sock->valid());
}

// ---------------------------------------------------------------------------
// Channel.
// ---------------------------------------------------------------------------

TEST(Channel, SilentPeerExpiresEveryCallByItsDeadline) {
  FakePeer peer([](ServerConn&, Frame) { return true; });  // never answers
  constexpr std::size_t kCalls = 8;
  Recorder recorder(kCalls);
  std::unique_ptr<Channel> channel = open_channel(peer.port());
  ASSERT_NE(channel, nullptr);
  std::vector<Clock::time_point> deadlines;
  for (std::size_t i = 0; i < kCalls; ++i) {
    deadlines.push_back(Clock::now() + 50ms + 10ms * static_cast<int>(i));
    ASSERT_TRUE(channel->call(request("silent"), deadlines.back(), recorder.completion(i)));
  }
  ASSERT_TRUE(recorder.wait_completed(kCalls));
  for (std::size_t i = 0; i < kCalls; ++i) {
    const Recorder::Entry entry = recorder.entry(i);
    EXPECT_EQ(entry.outcome, Outcome::kExpired) << "call " << i;
    EXPECT_GE(entry.at, deadlines[i]) << "call " << i;
    EXPECT_LT(entry.at, deadlines[i] + Channel::kSweepTick + kSlack) << "call " << i;
  }
  EXPECT_TRUE(channel->call(request("after"), std::nullopt, [](Outcome, Frame) {}))
      << "expiry is per call, not per connection";
  recorder.expect_each_ran_once();
}

TEST(Channel, SlowLorisPeerCannotHoldDeadlinesOpen) {
  RawListener listener;
  constexpr std::size_t kCalls = 4;
  Recorder recorder(kCalls);
  std::unique_ptr<Channel> channel = open_channel(listener.port());
  ASSERT_NE(channel, nullptr);
  const int peer = listener.accept_one();
  ASSERT_GE(peer, 0);
  Dribbler dribbler(peer);
  std::vector<Clock::time_point> deadlines;
  for (std::size_t i = 0; i < kCalls; ++i) {
    deadlines.push_back(Clock::now() + 100ms);
    ASSERT_TRUE(channel->call(request("loris"), deadlines.back(), recorder.completion(i)));
  }
  ASSERT_TRUE(recorder.wait_completed(kCalls));
  for (std::size_t i = 0; i < kCalls; ++i) {
    const Recorder::Entry entry = recorder.entry(i);
    EXPECT_EQ(entry.outcome, Outcome::kExpired) << "call " << i;
    EXPECT_LT(entry.at, deadlines[i] + Channel::kSweepTick + kSlack) << "call " << i;
  }
  recorder.expect_each_ran_once();
}

TEST(Channel, OutOfOrderRepliesReachTheirOwnCalls) {
  constexpr std::size_t kCalls = 8;
  // Holds every request until the last arrives, then answers newest first.
  FakePeer peer([](ServerConn& conn, Frame frame) {
    std::vector<Frame>& pending = held(conn);
    pending.push_back(std::move(frame));
    if (pending.size() == kCalls) {
      for (auto it = pending.rbegin(); it != pending.rend(); ++it) conn.send(reply_to(*it));
      pending.clear();
    }
    return true;
  });
  Recorder recorder(kCalls);
  std::unique_ptr<Channel> channel = open_channel(peer.port());
  ASSERT_NE(channel, nullptr);
  for (std::size_t i = 0; i < kCalls; ++i) {
    ASSERT_TRUE(channel->call(request("call-" + std::to_string(i)), std::nullopt,
                              recorder.completion(i)));
  }
  ASSERT_TRUE(recorder.wait_completed(kCalls));
  for (std::size_t i = 0; i < kCalls; ++i) {
    const Recorder::Entry entry = recorder.entry(i);
    EXPECT_EQ(entry.outcome, Outcome::kReply) << "call " << i;
    EXPECT_EQ(entry.body, "call-" + std::to_string(i));
  }
  recorder.expect_each_ran_once();
}

TEST(Channel, StrayAndLateRepliesAreDroppedAndTheChannelStaysUp) {
  // "late" is held; "stray" is preceded by a reply to an id never issued;
  // "flush" first releases the held "late" reply (its call has expired by
  // then), then answers itself.
  FakePeer peer([](ServerConn& conn, Frame frame) {
    if (frame.body == "late") {
      held(conn).push_back(std::move(frame));
    } else if (frame.body == "stray") {
      Frame bogus = reply_to(frame);
      bogus.request_id += 1000;
      conn.send(bogus);
      conn.send(reply_to(frame));
    } else {
      for (const Frame& old : held(conn)) conn.send(reply_to(old));
      held(conn).clear();
      conn.send(reply_to(frame));
    }
    return true;
  });
  Recorder recorder(3);
  std::unique_ptr<Channel> channel = open_channel(peer.port());
  ASSERT_NE(channel, nullptr);
  ASSERT_TRUE(channel->call(request("late"), Clock::now() + 30ms, recorder.completion(0)));
  ASSERT_TRUE(recorder.wait_completed(1));
  EXPECT_EQ(recorder.entry(0).outcome, Outcome::kExpired);
  ASSERT_TRUE(channel->call(request("stray"), std::nullopt, recorder.completion(1)));
  ASSERT_TRUE(recorder.wait_completed(2));
  ASSERT_TRUE(channel->call(request("flush"), std::nullopt, recorder.completion(2)));
  ASSERT_TRUE(recorder.wait_completed(3));
  EXPECT_EQ(recorder.entry(1).outcome, Outcome::kReply);
  EXPECT_EQ(recorder.entry(1).body, "stray");
  EXPECT_EQ(recorder.entry(2).outcome, Outcome::kReply);
  EXPECT_EQ(recorder.entry(2).body, "flush");
  recorder.expect_each_ran_once();
}

/// Holds every request until one whose body is "die", then hangs up: with
/// a kError frame when `error_frame`, else by closing at once.
void expect_hang_up_loses_every_call(bool error_frame) {
  FakePeer peer([error_frame](ServerConn& conn, Frame frame) {
    if (frame.body != "die") return true;
    if (!error_frame) return false;
    Frame error;
    error.type = kErrorType;
    error.request_id = frame.request_id;
    error.body = encode_text_body("going away");
    conn.send(error);
    conn.close_after_flush();
    return true;
  });
  constexpr std::size_t kCalls = 4;
  Recorder recorder(kCalls + 1);
  std::unique_ptr<Channel> channel = open_channel(peer.port());
  ASSERT_NE(channel, nullptr);
  for (std::size_t i = 0; i + 1 < kCalls; ++i) {
    ASSERT_TRUE(channel->call(request("held"), Clock::now() + 60s, recorder.completion(i)));
  }
  ASSERT_TRUE(channel->call(request("die"), std::nullopt, recorder.completion(kCalls - 1)));
  ASSERT_TRUE(recorder.wait_completed(kCalls));
  for (std::size_t i = 0; i < kCalls; ++i) {
    EXPECT_EQ(recorder.entry(i).outcome, Outcome::kLost) << "call " << i;
  }
  EXPECT_FALSE(channel->call(request("after"), std::nullopt, recorder.completion(kCalls)))
      << "a dead channel must refuse, not enlist";
  std::this_thread::sleep_for(Channel::kSweepTick * 3);
  EXPECT_EQ(recorder.entry(kCalls).runs, 0) << "a refused call never completes";
  channel.reset();
  for (std::size_t i = 0; i < kCalls; ++i) {
    EXPECT_EQ(recorder.entry(i).runs, 1) << "call " << i;
  }
}

TEST(Channel, PeerErrorFrameLosesEveryPendingCall) {
  expect_hang_up_loses_every_call(/*error_frame=*/true);
}

TEST(Channel, PeerCloseLosesEveryPendingCall) {
  expect_hang_up_loses_every_call(/*error_frame=*/false);
}

TEST(Channel, DestructionLosesEveryPendingCall) {
  FakePeer peer([](ServerConn&, Frame) { return true; });  // never answers
  constexpr std::size_t kCalls = 6;
  Recorder recorder(kCalls);
  std::unique_ptr<Channel> channel = open_channel(peer.port());
  ASSERT_NE(channel, nullptr);
  for (std::size_t i = 0; i < kCalls; ++i) {
    const std::optional<Clock::time_point> deadline =
        i % 2 == 0 ? std::optional<Clock::time_point>(Clock::now() + 60s) : std::nullopt;
    ASSERT_TRUE(channel->call(request("pending"), deadline, recorder.completion(i)));
  }
  channel.reset();  // completions must all have run by the time this returns
  for (std::size_t i = 0; i < kCalls; ++i) {
    const Recorder::Entry entry = recorder.entry(i);
    EXPECT_EQ(entry.runs, 1) << "call " << i;
    EXPECT_EQ(entry.outcome, Outcome::kLost) << "call " << i;
  }
}

// ---------------------------------------------------------------------------
// Waker: completion-driven handler threads.
// ---------------------------------------------------------------------------

/// Answers each request from a future that a settler thread fulfils
/// `delay` later and then announces through the connection's notifier —
/// the shape of an engine hand-off. Counts on_service passes.
class DeferredReplier final : public FrameHandler {
 public:
  explicit DeferredReplier(std::chrono::milliseconds delay) : delay_(delay) {
    EXPECT_TRUE(server_.start());
  }
  ~DeferredReplier() override {
    server_.stop();
    for (std::thread& settler : settlers_) settler.join();
  }

  std::uint16_t port() const { return server_.port(); }
  int services() const { return services_.load(); }

  const MessageSet& message_set() const override { return test_set(); }
  bool on_frame(ServerConn& conn, Frame frame, std::uint64_t) override {
    auto promise = std::make_shared<std::promise<Frame>>();
    futures(conn).push_back(promise->get_future());
    settlers_.emplace_back(
        [promise, reply = reply_to(frame), notify = conn.notifier(), delay = delay_] {
          std::this_thread::sleep_for(delay);
          promise->set_value(reply);
          notify();
        });
    return true;
  }
  bool on_service(ServerConn& conn) override {
    services_.fetch_add(1);
    std::list<std::future<Frame>>& pending = futures(conn);
    for (auto it = pending.begin(); it != pending.end();) {
      if (it->wait_for(0s) != std::future_status::ready) {
        ++it;
        continue;
      }
      conn.send(it->get());
      it = pending.erase(it);
    }
    return !pending.empty();
  }

 private:
  static std::list<std::future<Frame>>& futures(ServerConn& conn) {
    if (!conn.user) conn.user = std::make_shared<std::list<std::future<Frame>>>();
    return *static_cast<std::list<std::future<Frame>>*>(conn.user.get());
  }

  std::chrono::milliseconds delay_;
  std::atomic<int> services_{0};
  std::vector<std::thread> settlers_;  ///< handler thread only, until stop()
  FrameServer server_{*this};
};

TEST(Waker, SettledFutureWakesItsHandlerWithoutRePolling) {
  DeferredReplier replier(50ms);
  std::optional<FrameSocket> sock =
      FrameSocket::connect("127.0.0.1", replier.port(), test_set());
  ASSERT_TRUE(sock.has_value());
  ASSERT_TRUE(sock->send_frame(request("deferred")));
  const std::optional<Frame> reply = sock->recv_frame(1000);
  ASSERT_TRUE(reply.has_value()) << "the settler's notify must wake the handler";
  EXPECT_EQ(reply->type, kReply);
  EXPECT_EQ(reply->body, "deferred");
  // Adoption, the request and the settle wake the loop once each. A timed
  // re-poll of the pending future would have run it hundreds of times in
  // the 50 ms wait (250 passes at 200 us).
  EXPECT_LE(replier.services(), 6);
}

TEST(Waker, NotifyAfterServerStopAndDestructionIsHarmless) {
  std::shared_ptr<Waker> waker;
  std::function<void()> notify;
  {
    FakePeer peer([&](ServerConn& conn, Frame frame) {
      waker = conn.waker();
      notify = conn.notifier();
      conn.send(reply_to(frame));
      return true;
    });
    std::optional<FrameSocket> sock =
        FrameSocket::connect("127.0.0.1", peer.port(), test_set());
    ASSERT_TRUE(sock.has_value());
    ASSERT_TRUE(sock->send_frame(request("hand-off")));
    ASSERT_TRUE(sock->recv_frame(1000).has_value());
  }  // stopped and destroyed; the join orders the captures before the reads
  ASSERT_NE(waker, nullptr);
  ASSERT_TRUE(notify);
  EXPECT_GE(::fcntl(waker->fd(), F_GETFD), 0)
      << "a notifier keeps its waker's fd open past the server";
  std::thread late([&] {
    for (int i = 0; i < 100; ++i) notify();
  });
  waker->notify();
  late.join();
  EXPECT_EQ(waker->reset(), 1u);
}

TEST(Waker, ABurstOfNotifiesCostsOneWakeWrite) {
  Waker waker;
  ASSERT_GE(waker.fd(), 0);
  EXPECT_EQ(waker.reset(), 0u) << "no notify, no write";
  // 1000 notifies from four threads before the handler side runs.
  std::vector<std::thread> notifiers;
  for (int t = 0; t < 4; ++t) {
    notifiers.emplace_back([&] {
      for (int i = 0; i < 250; ++i) waker.notify();
    });
  }
  for (std::thread& notifier : notifiers) notifier.join();
  EXPECT_EQ(waker.reset(), 1u) << "only the false -> true flip writes";
  waker.notify();
  EXPECT_EQ(waker.reset(), 1u) << "reset re-arms the waker";
  EXPECT_EQ(waker.reset(), 0u);
}

}  // namespace
}  // namespace noble::net
