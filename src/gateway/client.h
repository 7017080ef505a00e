// Client side of the gateway wire protocol: the shared net::FrameSocket
// bound to the gateway MessageSet, plus a small synchronous convenience
// API.
//
// GatewayClient layers request-id bookkeeping and blocking call-and-wait
// helpers on top — what an example, a test, or a device SDK would use. The
// fix a sync call returns is the decoded wire payload, bit-identical to the
// server-side Fix by the codec's exactness (raw float/double bit patterns
// cross the wire, nothing is re-derived).
#ifndef NOBLE_GATEWAY_CLIENT_H_
#define NOBLE_GATEWAY_CLIENT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "gateway/wire.h"
#include "net/socket.h"

namespace noble::gateway {

/// Status + fix outcome of one Locate/TrackUpdate over the wire.
struct WireResult {
  wire::Status status = wire::Status::kStopped;
  serve::Fix fix;  ///< meaningful only when status == kOk

  bool ok() const { return status == wire::Status::kOk; }
};

class GatewayClient {
 public:
  static std::optional<GatewayClient> connect(const std::string& host,
                                              std::uint16_t port);

  GatewayClient(GatewayClient&&) = default;
  GatewayClient& operator=(GatewayClient&&) = default;

  // --- blocking call-and-wait ------------------------------------------------

  /// One scan, one answer. Class and deadline ride the frame header into
  /// the server's SubmitOptions.
  WireResult locate(const std::string& shard_key, const serve::RssiVector& rssi,
                    engine::RequestClass cls = engine::RequestClass::kInteractive,
                    std::uint64_t deadline_us = 0);

  /// Opens a streaming IMU track; the returned wire session id feeds
  /// track()/close_session(). nullopt when the server refused.
  std::optional<std::uint64_t> open_session(const std::string& shard_key,
                                            const geo::Point2& start);

  WireResult track(std::uint64_t session_id, const serve::ImuSegment& segment,
                   engine::RequestClass cls = engine::RequestClass::kInteractive,
                   std::uint64_t deadline_us = 0);

  bool close_session(std::uint64_t session_id);

  /// The scrape page (gateway counters + fleet stats), Prometheus text.
  std::optional<std::string> stats_text();

  /// The binary scrape: raw bytes of the server's obs::encode_snapshot
  /// image (full histogram bins included). Decode with obs::decode_snapshot.
  std::optional<std::string> stats_snapshot_bytes();

  // --- pipelined access ------------------------------------------------------

  /// Fire-and-forget submit; returns the request id to match against
  /// recv_fix(), or 0 when the send failed.
  std::uint64_t send_locate(const std::string& shard_key, const serve::RssiVector& rssi,
                            engine::RequestClass cls, std::uint64_t deadline_us);
  std::uint64_t send_track(std::uint64_t session_id, const serve::ImuSegment& segment,
                           engine::RequestClass cls, std::uint64_t deadline_us);

  /// Next kFix response in arrival order: (request id, outcome). nullopt on
  /// timeout or connection loss. Skips nothing: any non-kFix frame that
  /// arrives while waiting fails the call (protocol confusion, not traffic).
  std::optional<std::pair<std::uint64_t, WireResult>> recv_fix(int timeout_ms = -1);

  net::FrameSocket& socket() { return sock_; }
  bool valid() const { return sock_.valid(); }

 private:
  explicit GatewayClient(net::FrameSocket sock) : sock_(std::move(sock)) {}

  /// Blocks until the response with `request_id` of `type` arrives.
  std::optional<net::Frame> await(wire::MsgType type, std::uint64_t request_id);

  net::FrameSocket sock_;
  std::uint64_t next_request_id_ = 1;
};

}  // namespace noble::gateway

#endif  // NOBLE_GATEWAY_CLIENT_H_
