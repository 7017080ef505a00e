#include "gateway/client.h"

namespace noble::gateway {

// --- GatewayClient -----------------------------------------------------------

std::optional<GatewayClient> GatewayClient::connect(const std::string& host,
                                                    std::uint16_t port) {
  std::optional<net::FrameSocket> sock =
      net::FrameSocket::connect(host, port, wire::message_set());
  if (!sock.has_value()) return std::nullopt;
  return GatewayClient(std::move(*sock));
}

std::optional<net::Frame> GatewayClient::await(wire::MsgType type,
                                               std::uint64_t request_id) {
  // Sync callers have exactly one request outstanding, so the next frame of
  // the right (type, id) is theirs; anything else is a protocol violation.
  while (std::optional<net::Frame> frame = sock_.recv_frame()) {
    if (frame->type == type && frame->request_id == request_id) return frame;
    return std::nullopt;
  }
  return std::nullopt;
}

std::uint64_t GatewayClient::send_locate(const std::string& shard_key,
                                         const serve::RssiVector& rssi,
                                         engine::RequestClass cls,
                                         std::uint64_t deadline_us) {
  net::Frame frame;
  frame.type = wire::MsgType::kLocate;
  frame.request_id = next_request_id_++;
  frame.cls = cls;
  frame.deadline_us = deadline_us;
  frame.body = wire::encode_locate_body(shard_key, rssi);
  return sock_.send_frame(frame) ? frame.request_id : 0;
}

std::uint64_t GatewayClient::send_track(std::uint64_t session_id,
                                        const serve::ImuSegment& segment,
                                        engine::RequestClass cls,
                                        std::uint64_t deadline_us) {
  net::Frame frame;
  frame.type = wire::MsgType::kTrackUpdate;
  frame.request_id = next_request_id_++;
  frame.cls = cls;
  frame.deadline_us = deadline_us;
  frame.body = wire::encode_track_body(session_id, segment);
  return sock_.send_frame(frame) ? frame.request_id : 0;
}

std::optional<std::pair<std::uint64_t, WireResult>> GatewayClient::recv_fix(
    int timeout_ms) {
  std::optional<net::Frame> frame = sock_.recv_frame(timeout_ms);
  if (!frame.has_value() || frame->type != wire::MsgType::kFix) return std::nullopt;
  WireResult result;
  if (!wire::decode_fix_body(frame->body, result.status, result.fix)) return std::nullopt;
  return std::make_pair(frame->request_id, result);
}

WireResult GatewayClient::locate(const std::string& shard_key,
                                 const serve::RssiVector& rssi,
                                 engine::RequestClass cls, std::uint64_t deadline_us) {
  WireResult result;
  const std::uint64_t id = send_locate(shard_key, rssi, cls, deadline_us);
  if (id == 0) return result;
  std::optional<net::Frame> frame = await(wire::MsgType::kFix, id);
  if (!frame.has_value() ||
      !wire::decode_fix_body(frame->body, result.status, result.fix)) {
    result.status = wire::Status::kStopped;
  }
  return result;
}

std::optional<std::uint64_t> GatewayClient::open_session(const std::string& shard_key,
                                                         const geo::Point2& start) {
  net::Frame frame;
  frame.type = wire::MsgType::kOpenSession;
  frame.request_id = next_request_id_++;
  frame.body = wire::encode_open_session_body(shard_key, start);
  if (!sock_.send_frame(frame)) return std::nullopt;
  std::optional<net::Frame> reply = await(wire::MsgType::kSessionOpened, frame.request_id);
  wire::Status status = wire::Status::kStopped;
  std::uint64_t session_id = 0;
  if (!reply.has_value() ||
      !wire::decode_session_opened_body(reply->body, status, session_id)) {
    last_error_ = wire::Status::kStopped;
    return std::nullopt;
  }
  last_error_ = status;
  if (status != wire::Status::kOk) return std::nullopt;
  return session_id;
}

WireResult GatewayClient::track(std::uint64_t session_id, const serve::ImuSegment& segment,
                                engine::RequestClass cls, std::uint64_t deadline_us) {
  WireResult result;
  const std::uint64_t id = send_track(session_id, segment, cls, deadline_us);
  if (id == 0) return result;
  std::optional<net::Frame> frame = await(wire::MsgType::kFix, id);
  if (!frame.has_value() ||
      !wire::decode_fix_body(frame->body, result.status, result.fix)) {
    result.status = wire::Status::kStopped;
  }
  return result;
}

bool GatewayClient::close_session(std::uint64_t session_id) {
  net::Frame frame;
  frame.type = wire::MsgType::kCloseSession;
  frame.request_id = next_request_id_++;
  frame.body = wire::encode_close_session_body(session_id);
  if (!sock_.send_frame(frame)) return false;
  std::optional<net::Frame> reply = await(wire::MsgType::kSessionClosed, frame.request_id);
  wire::Status status = wire::Status::kStopped;
  return reply.has_value() && wire::decode_status_body(reply->body, status) &&
         status == wire::Status::kOk;
}

std::optional<std::string> GatewayClient::stats_text() {
  net::Frame frame;
  frame.type = wire::MsgType::kStats;
  frame.request_id = next_request_id_++;
  if (!sock_.send_frame(frame)) return std::nullopt;
  std::optional<net::Frame> reply = await(wire::MsgType::kStatsText, frame.request_id);
  std::string text;
  if (!reply.has_value() || !net::decode_text_body(reply->body, text)) {
    return std::nullopt;
  }
  return text;
}

std::optional<std::string> GatewayClient::stats_snapshot_bytes() {
  net::Frame frame;
  frame.type = wire::MsgType::kStatsBinary;
  frame.request_id = next_request_id_++;
  if (!sock_.send_frame(frame)) return std::nullopt;
  std::optional<net::Frame> reply =
      await(wire::MsgType::kStatsSnapshot, frame.request_id);
  std::string bytes;
  if (!reply.has_value() || !net::decode_text_body(reply->body, bytes)) {
    return std::nullopt;
  }
  return bytes;
}

}  // namespace noble::gateway
