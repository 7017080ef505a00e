#include "gateway/wire.h"

#include <chrono>

#include "nn/serialize.h"

namespace noble::gateway::wire {

const net::MessageSet& message_set() {
  static const net::MessageSet set(
      "gateway",
      {{static_cast<std::uint32_t>(MsgType::kLocate), "locate"},
       {static_cast<std::uint32_t>(MsgType::kOpenSession), "open_session"},
       {static_cast<std::uint32_t>(MsgType::kTrackUpdate), "track_update"},
       {static_cast<std::uint32_t>(MsgType::kCloseSession), "close_session"},
       {static_cast<std::uint32_t>(MsgType::kStats), "stats"},
       {static_cast<std::uint32_t>(MsgType::kStatsBinary), "stats_binary"},
       {static_cast<std::uint32_t>(MsgType::kFix), "fix"},
       {static_cast<std::uint32_t>(MsgType::kSessionOpened), "session_opened"},
       {static_cast<std::uint32_t>(MsgType::kSessionClosed), "session_closed"},
       {static_cast<std::uint32_t>(MsgType::kStatsText), "stats_text"},
       {static_cast<std::uint32_t>(MsgType::kError), "error"},
       {static_cast<std::uint32_t>(MsgType::kStatsSnapshot), "stats_snapshot"}});
  return set;
}

const char* status_name(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kQueueFull: return "queue_full";
    case Status::kBadDimension: return "bad_dimension";
    case Status::kNoSession: return "no_session";
    case Status::kNoShard: return "no_shard";
    case Status::kExpired: return "expired";
    case Status::kStopped: return "stopped";
    case Status::kDeadlineExpired: return "deadline_expired";
    case Status::kWindowFull: return "window_full";
    case Status::kWrongArtifact: return "wrong_artifact";
  }
  return "unknown";
}

Status from_submit_status(engine::SubmitStatus status) {
  switch (status) {
    case engine::SubmitStatus::kAccepted: return Status::kOk;
    case engine::SubmitStatus::kQueueFull: return Status::kQueueFull;
    case engine::SubmitStatus::kBadDimension: return Status::kBadDimension;
    case engine::SubmitStatus::kNoSession: return Status::kNoSession;
    case engine::SubmitStatus::kNoShard: return Status::kNoShard;
    case engine::SubmitStatus::kExpired: return Status::kExpired;
    case engine::SubmitStatus::kStopped: return Status::kStopped;
  }
  return Status::kStopped;
}

std::exception_ptr rejection_exception(Status status) {
  if (status == Status::kDeadlineExpired) {
    return std::make_exception_ptr(engine::DeadlineExpired());
  }
  return std::make_exception_ptr(WireRejected(status));
}

engine::SubmitOptions to_submit_options(const net::Frame& frame) {
  engine::SubmitOptions options;
  options.request_class = frame.cls;
  if (frame.deadline_us > 0) options.expires_in_us(frame.deadline_us);
  return options;
}

void stamp_submit_options(const engine::SubmitOptions& options, net::Frame& frame) {
  frame.cls = options.request_class;
  frame.deadline_us = 0;
  if (!options.deadline) return;
  const auto left = std::chrono::duration_cast<std::chrono::microseconds>(
      *options.deadline - std::chrono::steady_clock::now());
  frame.deadline_us = left.count() > 0 ? static_cast<std::uint64_t>(left.count()) : 1;
}

// --- request bodies ----------------------------------------------------------

std::string encode_locate_body(std::string_view shard_key, const serve::RssiVector& rssi) {
  nn::ByteWriter w;
  w.str(shard_key);
  w.f32v(rssi);
  return w.take();
}

bool decode_locate_body(std::string_view body, std::string& shard_key,
                        serve::RssiVector& rssi) {
  nn::ByteReader r(body);
  return r.str(shard_key) && r.f32v(rssi) && r.exhausted();
}

std::string encode_open_session_body(std::string_view shard_key, const geo::Point2& start) {
  nn::ByteWriter w;
  w.str(shard_key);
  w.f64(start.x);
  w.f64(start.y);
  return w.take();
}

bool decode_open_session_body(std::string_view body, std::string& shard_key,
                              geo::Point2& start) {
  nn::ByteReader r(body);
  return r.str(shard_key) && r.f64(start.x) && r.f64(start.y) && r.exhausted();
}

std::string encode_track_body(std::uint64_t session_id, const serve::ImuSegment& segment) {
  nn::ByteWriter w;
  w.u64(session_id);
  w.f32v(segment);
  return w.take();
}

bool decode_track_body(std::string_view body, std::uint64_t& session_id,
                       serve::ImuSegment& segment) {
  nn::ByteReader r(body);
  return r.u64(session_id) && r.f32v(segment) && r.exhausted();
}

std::string encode_close_session_body(std::uint64_t session_id) {
  nn::ByteWriter w;
  w.u64(session_id);
  return w.take();
}

bool decode_close_session_body(std::string_view body, std::uint64_t& session_id) {
  nn::ByteReader r(body);
  return r.u64(session_id) && r.exhausted();
}

// --- response bodies ---------------------------------------------------------

std::string encode_fix_body(Status status, const serve::Fix* fix) {
  nn::ByteWriter w;
  w.u32(static_cast<std::uint32_t>(status));
  if (status == Status::kOk && fix != nullptr) {
    w.u32(static_cast<std::uint32_t>(fix->building));
    w.u32(static_cast<std::uint32_t>(fix->floor));
    w.u32(static_cast<std::uint32_t>(fix->fine_class));
    w.f64(fix->position.x);
    w.f64(fix->position.y);
    w.f64(fix->confidence);
  }
  return w.take();
}

bool decode_fix_body(std::string_view body, Status& status, serve::Fix& fix) {
  nn::ByteReader r(body);
  std::uint32_t raw = 0;
  if (!r.u32(raw)) return false;
  status = static_cast<Status>(raw);
  if (status != Status::kOk) return r.exhausted();
  std::uint32_t building = 0, floor = 0, fine_class = 0;
  if (!r.u32(building) || !r.u32(floor) || !r.u32(fine_class) ||
      !r.f64(fix.position.x) || !r.f64(fix.position.y) || !r.f64(fix.confidence) ||
      !r.exhausted()) {
    return false;
  }
  fix.building = static_cast<int>(building);
  fix.floor = static_cast<int>(floor);
  fix.fine_class = static_cast<int>(fine_class);
  return true;
}

std::string encode_ready_fix_body(std::future<serve::Fix>& result, Status* status) {
  Status code = Status::kStopped;
  try {
    const serve::Fix fix = result.get();
    if (status != nullptr) *status = Status::kOk;
    return encode_fix_body(Status::kOk, &fix);
  } catch (const engine::DeadlineExpired&) {
    code = Status::kDeadlineExpired;
  } catch (...) {
    // Any other failure: the request is gone (code stays kStopped).
  }
  if (status != nullptr) *status = code;
  return encode_fix_body(code, nullptr);
}

Status decode_fix_reply(net::Channel::Outcome outcome, const net::Frame& reply,
                        net::TypeId reply_type, serve::Fix& fix) {
  if (outcome == net::Channel::Outcome::kExpired) return Status::kDeadlineExpired;
  Status status = Status::kStopped;
  if (outcome != net::Channel::Outcome::kReply || reply.type != reply_type ||
      !decode_fix_body(reply.body, status, fix)) {
    return Status::kStopped;
  }
  return status;
}

void settle_fix(std::promise<serve::Fix>& waiter, Status status, const serve::Fix& fix) {
  if (status == Status::kOk) {
    waiter.set_value(fix);
  } else {
    waiter.set_exception(rejection_exception(status));
  }
}

std::string encode_session_opened_body(Status status, std::uint64_t session_id) {
  nn::ByteWriter w;
  w.u32(static_cast<std::uint32_t>(status));
  w.u64(session_id);
  return w.take();
}

bool decode_session_opened_body(std::string_view body, Status& status,
                                std::uint64_t& session_id) {
  nn::ByteReader r(body);
  std::uint32_t raw = 0;
  if (!r.u32(raw) || !r.u64(session_id) || !r.exhausted()) return false;
  status = static_cast<Status>(raw);
  return true;
}

std::string encode_status_body(Status status) {
  nn::ByteWriter w;
  w.u32(static_cast<std::uint32_t>(status));
  return w.take();
}

bool decode_status_body(std::string_view body, Status& status) {
  nn::ByteReader r(body);
  std::uint32_t raw = 0;
  if (!r.u32(raw) || !r.exhausted()) return false;
  status = static_cast<Status>(raw);
  return true;
}

}  // namespace noble::gateway::wire
