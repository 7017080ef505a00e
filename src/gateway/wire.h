// noble::gateway wire protocol — the gateway's message vocabulary and typed
// bodies over the shared noble::net frame codec.
//
// Framing (length prefix, versioned magic header, request id, class,
// relative deadline, defensive decode) lives in net/frame.h and is shared
// with the cluster's inter-node protocol; this header owns what is
// gateway-specific: the MsgType registry, the per-type body codecs, and the
// Status outcome space.
//
// Request ids correlate responses on a multiplexed connection: the gateway
// answers out of request order when micro-batches complete out of order,
// and the header's class + deadline map straight onto engine::SubmitOptions
// — the admission story carried end to end over the socket.
//
// This header is also the one place the engine's SubmitStatus verdicts, the
// wire Status codes and the client-side exception surface meet:
// from_submit_status is the total map from verdict to code, and
// rejection_exception() is the single table every client reader uses to
// turn a non-kOk fix status into the exception the harness counts. Fix
// replies map once each way: encode_ready_fix_body (server: ready future ->
// statused body) and decode_fix_reply + settle_fix (client: channel
// completion -> promise).
#ifndef NOBLE_GATEWAY_WIRE_H_
#define NOBLE_GATEWAY_WIRE_H_

#include <cstdint>
#include <exception>
#include <future>
#include <stdexcept>
#include <string>
#include <string_view>

#include "engine/engine.h"
#include "geo/point.h"
#include "net/channel.h"
#include "net/frame.h"
#include "serve/fix.h"

namespace noble::gateway::wire {

enum class MsgType : std::uint32_t {
  // Client -> server.
  kLocate = 1,        ///< one RSSI scan for a shard key
  kOpenSession = 2,   ///< open a streaming IMU track on a shard
  kTrackUpdate = 3,   ///< one IMU segment for an open session
  kCloseSession = 4,  ///< close a streaming track
  kStats = 5,         ///< scrape the stats page, Prometheus text exposition
  kStatsBinary = 6,   ///< scrape the obs::MetricsSnapshot binary exposition
  // Server -> client.
  kFix = 101,            ///< Locate / TrackUpdate outcome (status + fix)
  kSessionOpened = 102,  ///< OpenSession outcome (status + session id)
  kSessionClosed = 103,  ///< CloseSession outcome (status)
  kStatsText = 104,      ///< Stats outcome (text page)
  kError = net::kErrorType,  ///< protocol violation; the connection closes
  kStatsSnapshot = 106,  ///< StatsBinary outcome (encode_snapshot image)
};

/// The gateway protocol's message registry — what decode_frame admits on a
/// gateway connection.
const net::MessageSet& message_set();

/// Outcome code carried by response frames: engine::SubmitStatus verdicts
/// plus the wire-only outcomes (a future that expired after admission,
/// gateway-level backpressure when a connection overruns its in-flight
/// window, and a cluster spill landing on a peer serving a different
/// artifact).
enum class Status : std::uint32_t {
  kOk = 0,
  kQueueFull = 1,
  kBadDimension = 2,
  kNoSession = 3,
  kNoShard = 4,
  kExpired = 5,
  kStopped = 6,
  kDeadlineExpired = 7,  ///< admitted, then lapsed in queue (future failed)
  kWindowFull = 8,       ///< per-connection in-flight window exceeded
  kWrongArtifact = 9,    ///< spill peer serves a different model generation
};

const char* status_name(Status s);

// --- the status table (engine verdict <-> wire code <-> client exception) ----

/// Engine admission verdict -> wire status. Total over SubmitStatus; the
/// single map every server-side reply path uses.
Status from_submit_status(engine::SubmitStatus status);

/// Rejection that reached the client over the wire after admission-time
/// accounting was no longer possible (a pipelined socket learns the verdict
/// only when the response frame arrives). Carries the wire status; load
/// harnesses count it as a shed, mirroring an immediate kQueueFull.
class WireRejected : public std::runtime_error {
 public:
  explicit WireRejected(Status status)
      : std::runtime_error(std::string("rejected over the wire: ") +
                           status_name(status)),
        status(status) {}
  Status status;
};

/// The one non-kOk-status -> exception map client readers install on their
/// waiting futures: kDeadlineExpired becomes engine::DeadlineExpired (so
/// wire and in-process targets fail identically), everything else a
/// WireRejected carrying the status.
std::exception_ptr rejection_exception(Status status);

// --- header <-> SubmitOptions (one mapping each way) --------------------------

/// The header's class and relative deadline budget as SubmitOptions,
/// resolved against this host's steady clock at decode time (clocks never
/// cross the wire).
engine::SubmitOptions to_submit_options(const net::Frame& frame);

/// Stamps `options`' class and deadline onto `frame` as a relative budget
/// (0 = none). An already-lapsed deadline becomes the minimum budget (1 us)
/// so the server still expires it — the client clock never decides.
void stamp_submit_options(const engine::SubmitOptions& options, net::Frame& frame);

// --- request bodies ----------------------------------------------------------

std::string encode_locate_body(std::string_view shard_key, const serve::RssiVector& rssi);
bool decode_locate_body(std::string_view body, std::string& shard_key,
                        serve::RssiVector& rssi);

std::string encode_open_session_body(std::string_view shard_key, const geo::Point2& start);
bool decode_open_session_body(std::string_view body, std::string& shard_key,
                              geo::Point2& start);

std::string encode_track_body(std::uint64_t session_id, const serve::ImuSegment& segment);
bool decode_track_body(std::string_view body, std::uint64_t& session_id,
                       serve::ImuSegment& segment);

std::string encode_close_session_body(std::uint64_t session_id);
bool decode_close_session_body(std::string_view body, std::uint64_t& session_id);

// --- response bodies ---------------------------------------------------------

/// status != kOk carries no fix payload.
std::string encode_fix_body(Status status, const serve::Fix* fix);
bool decode_fix_body(std::string_view body, Status& status, serve::Fix& fix);

/// Server side, the one ready-future -> reply map: the statused fix body
/// for a ready `result` — the fix, kDeadlineExpired for
/// engine::DeadlineExpired, kStopped for any other failure (a session closed
/// under a pending update, an engine drained at shutdown). `status`, when
/// non-null, receives the code.
std::string encode_ready_fix_body(std::future<serve::Fix>& result,
                                  Status* status = nullptr);

/// Client side, the one reply -> outcome map for a net::Channel fix call: a
/// `reply_type` frame's carried status (and `fix` when kOk);
/// kDeadlineExpired for an expired call; kStopped for a lost call, a
/// wrong-type reply or an undecodable body.
Status decode_fix_reply(net::Channel::Outcome outcome, const net::Frame& reply,
                        net::TypeId reply_type, serve::Fix& fix);

/// Settles a client's waiting promise: `fix` for kOk, rejection_exception()
/// of `status` otherwise.
void settle_fix(std::promise<serve::Fix>& waiter, Status status, const serve::Fix& fix);

std::string encode_session_opened_body(Status status, std::uint64_t session_id);
bool decode_session_opened_body(std::string_view body, Status& status,
                                std::uint64_t& session_id);

std::string encode_status_body(Status status);
bool decode_status_body(std::string_view body, Status& status);

}  // namespace noble::gateway::wire

#endif  // NOBLE_GATEWAY_WIRE_H_
