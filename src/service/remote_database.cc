#include "service/remote_database.h"

#include <chrono>
#include <random>
#include <thread>

namespace hdsky {
namespace service {

using common::Result;
using common::Status;
using net::Frame;
using net::FrameType;
using net::WireStatus;

uint64_t RandomSessionId() {
  // Session ids only need uniqueness, not reproducibility: two clients
  // sharing an id would share budget and replay state.
  std::random_device rd;
  uint64_t id = (static_cast<uint64_t>(rd()) << 32) ^ rd();
  if (id == 0) id = 1;
  return id;
}

Result<std::unique_ptr<RemoteHiddenDatabase>> RemoteHiddenDatabase::Connect(
    const std::string& host, uint16_t port, const Options& options) {
  if (options.max_attempts < 1) {
    return Status::InvalidArgument("max_attempts must be >= 1");
  }
  if (options.io_timeout_ms < 1 || options.connect_timeout_ms < 1) {
    return Status::InvalidArgument("timeouts must be positive");
  }
  Options resolved = options;
  if (resolved.session_id == 0) resolved.session_id = RandomSessionId();
  if (resolved.jitter_seed == 0) resolved.jitter_seed = resolved.session_id;
  auto db = std::unique_ptr<RemoteHiddenDatabase>(
      new RemoteHiddenDatabase(host, port, resolved));
  db->jitter_.Seed(resolved.jitter_seed);
  HDSKY_RETURN_IF_ERROR(db->EnsureConnected());
  return db;
}

Status RemoteHiddenDatabase::SendFrame(net::FrameType type,
                                       const std::string& payload) {
  Status s = net::WriteFrame(socket_, type, payload);
  // Count on success only: a failed write may have sent anywhere from 0
  // to all bytes, and undercounting a torn frame beats inventing traffic.
  if (s.ok()) {
    stats_.bytes_sent +=
        static_cast<int64_t>(net::kFrameHeaderBytes + payload.size());
  }
  return s;
}

Status RemoteHiddenDatabase::RecvFrame(net::Frame* frame) {
  Status s = net::ReadFrame(socket_, frame);
  if (s.ok()) {
    stats_.bytes_received +=
        static_cast<int64_t>(net::kFrameHeaderBytes + frame->payload.size());
  }
  return s;
}

Status RemoteHiddenDatabase::EnsureConnected() {
  if (socket_.valid()) return Status::OK();
  HDSKY_ASSIGN_OR_RETURN(
      net::Socket sock,
      net::Socket::Connect(host_, port_, options_.connect_timeout_ms));
  HDSKY_RETURN_IF_ERROR(sock.SetIoTimeout(options_.io_timeout_ms));
  std::string hello;
  net::EncodeHello(options_.session_id, &hello);
  socket_ = std::move(sock);
  Status hs = SendFrame(FrameType::kHello, hello);
  if (!hs.ok()) {
    Disconnect();
    return hs;
  }
  Frame frame;
  hs = RecvFrame(&frame);
  if (!hs.ok()) {
    Disconnect();
    return hs;
  }
  if (frame.type == FrameType::kStatus) {
    // The server refused the connection (e.g. connection limit).
    Disconnect();
    uint64_t seq;
    uint16_t code;
    std::string message;
    HDSKY_RETURN_IF_ERROR(
        net::DecodeStatusFrame(frame.payload, &seq, &code, &message));
    if (net::IsTransient(static_cast<WireStatus>(code))) {
      // The server is shedding load, not broken: Unavailable, which the
      // retry loop below still treats as transient.
      return Status::Unavailable("server throttled the connection: " +
                                 message);
    }
    return net::StatusFromWire(code, message);
  }
  if (frame.type != FrameType::kDescriptor) {
    Disconnect();
    return Status::IOError(std::string("expected Descriptor, got ") +
                           net::FrameTypeToString(frame.type));
  }
  auto descriptor_or = net::DecodeDescriptor(frame.payload);
  if (!descriptor_or.ok()) {
    Disconnect();
    return descriptor_or.status();
  }
  net::Descriptor descriptor = std::move(descriptor_or).value();
  if (ever_connected_) {
    if (descriptor.schema.num_attributes() != schema_.num_attributes() ||
        descriptor.k != k_) {
      Disconnect();
      return Status::IOError(
          "server changed its interface mid-session (schema or k differs)");
    }
    stats_.reconnects += 1;
  } else {
    schema_ = std::move(descriptor.schema);
    k_ = descriptor.k;
    ever_connected_ = true;
  }
  remaining_budget_ = descriptor.remaining_budget;
  return Status::OK();
}

void RemoteHiddenDatabase::Backoff(int attempt) {
  int64_t delay = options_.initial_backoff_ms;
  for (int i = 1; i < attempt && delay < options_.max_backoff_ms; ++i) {
    delay *= 2;
  }
  if (delay > options_.max_backoff_ms) delay = options_.max_backoff_ms;
  if (delay <= 0) return;
  // Full jitter over the upper half of the window: desynchronizes
  // competing clients while keeping a floor under the wait.
  const int64_t jittered = delay / 2 + jitter_.UniformInt(0, delay / 2);
  stats_.backoff_ms += jittered;
  std::this_thread::sleep_for(std::chrono::milliseconds(jittered));
}

Result<interface::QueryResult> RemoteHiddenDatabase::Execute(
    const interface::Query& q) {
  // Local validation against the served schema is free and mirrors what a
  // user can read off the search form; the server re-validates anyway.
  HDSKY_RETURN_IF_ERROR(ValidateQuery(q));

  const uint64_t seq = next_seq_;
  std::string query_payload;
  net::EncodeQuery(seq, q, &query_payload);

  Status last_error = Status::IOError("no attempt made");
  for (int attempt = 1; attempt <= options_.max_attempts; ++attempt) {
    if (attempt > 1) {
      stats_.retries += 1;
      Backoff(attempt - 1);
    }
    Status s = EnsureConnected();
    if (!s.ok()) {
      // IOError (link trouble) and Unavailable (throttled connect) are
      // transient; anything else is a permanent refusal from the server.
      if (!s.IsIOError() && !s.IsUnavailable()) return s;
      last_error = s;
      continue;
    }
    s = SendFrame(FrameType::kQuery, query_payload);
    if (!s.ok()) {
      Disconnect();
      last_error = s;
      continue;
    }
    Frame frame;
    s = RecvFrame(&frame);
    if (!s.ok()) {
      Disconnect();
      last_error = s;
      continue;
    }
    if (frame.type == FrameType::kResult) {
      uint64_t reply_seq = 0;
      interface::QueryResult result;
      s = net::DecodeResult(frame.payload, schema_.num_attributes(),
                            &reply_seq, &result);
      if (!s.ok() || reply_seq != seq) {
        Disconnect();
        last_error = s.ok() ? Status::IOError(
                                  "response sequence mismatch (got " +
                                  std::to_string(reply_seq) + ", want " +
                                  std::to_string(seq) + ")")
                            : s;
        continue;
      }
      next_seq_ += 1;
      stats_.remote_queries += 1;
      return result;
    }
    if (frame.type == FrameType::kStatus) {
      uint64_t reply_seq = 0;
      uint16_t code = 0;
      std::string message;
      s = net::DecodeStatusFrame(frame.payload, &reply_seq, &code, &message);
      if (!s.ok()) {
        Disconnect();
        last_error = s;
        continue;
      }
      if (net::IsTransient(static_cast<WireStatus>(code))) {
        // Server-side throttle: the connection is healthy, the query was
        // not executed; back off and retry the same sequence number.
        stats_.rate_limited += 1;
        last_error = Status::Unavailable(
            "rate limited by server: " + message);
        continue;
      }
      // Permanent, honestly propagated. The server cached this reply
      // under `seq`, so advance past it.
      next_seq_ += 1;
      return net::StatusFromWire(code, message);
    }
    Disconnect();
    last_error = Status::IOError(std::string("unexpected ") +
                                 net::FrameTypeToString(frame.type) +
                                 " frame in response to a query");
  }

  // Retries exhausted: the backend is unreachable right now, whether the
  // last symptom was server-side shedding (kRateLimited bounces) or link
  // trouble (connect refused, timeouts, torn frames). Both are
  // Unavailable — "site is down or busy, come back later" — distinct from
  // a spent budget (ResourceExhausted) and from interior protocol
  // corruption, which surfaces as IOError from the attempt itself, not
  // here. Federation health machines and exit-code mapping key off this.
  stats_.failed_queries += 1;
  return Status::Unavailable("backend unreachable: remote query failed "
                             "after " +
                             std::to_string(options_.max_attempts) +
                             " attempts: " + last_error.ToString());
}

}  // namespace service
}  // namespace hdsky
