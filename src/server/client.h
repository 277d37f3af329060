// Blocking NDJSON client for pfqld: one TCP connection, one request line
// out, one response line back. Shared by `pfql client`, the integration
// tests, and bench_server.
//
// Two calling conventions:
//   * Call()/RoundTrip(): one shot, no retry — a transport error is the
//     caller's problem;
//   * CallWithRetry(): retries *idempotent* requests on transient transport
//     errors (connection reset, short read, receive timeout) and on
//     server-side overload shedding, with decorrelated-jitter backoff and
//     automatic reconnect, per ClientOptions::retry. Non-idempotent
//     requests and non-retryable errors fail fast on the first attempt.
#ifndef PFQL_SERVER_CLIENT_H_
#define PFQL_SERVER_CLIENT_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>

#include "server/loopback.h"
#include "util/backoff.h"
#include "util/json.h"
#include "util/status.h"

namespace pfql {
namespace server {

struct ClientOptions {
  /// Retry schedule for CallWithRetry. The default (max_attempts = 1)
  /// makes CallWithRetry behave exactly like Call.
  RetryPolicy retry;
};

class Client {
 public:
  Client() = default;
  explicit Client(const ClientOptions& options) : options_(options) {}
  ~Client() { Disconnect(); }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects to 127.0.0.1:port. The port is remembered so CallWithRetry
  /// can reconnect after a dropped connection.
  Status Connect(uint16_t port);
  void Disconnect();
  bool connected() const { return fd_ >= 0; }

  /// Sends one request line (newline appended) and blocks for the next
  /// line off the wire, verbatim — no id routing, no push diversion. Raw
  /// by design (wire-level tests); connections with live subscriptions
  /// should use Call(), which routes.
  StatusOr<std::string> RoundTrip(std::string_view request_line);

  /// Sends the request and blocks for *its* response. The request is
  /// tagged with an auto-generated "id" when the caller did not set one,
  /// and the reply is matched by that id: server-pushed subscription lines
  /// ("event" member) that arrive in between are diverted to the push
  /// queue (NextPush) instead of being misread as the response.
  StatusOr<Json> Call(const Json& request);

  /// Opens a streaming subscription: forces method:"subscribe", performs
  /// the Call, and returns the subscription id from the ack. A server-side
  /// rejection comes back as a Status carrying the error message.
  StatusOr<std::string> Subscribe(const Json& request);

  /// Pops the next pushed subscription line ({"sub","event","seq",...}),
  /// reading from the socket as needed. timeout_ms < 0 blocks
  /// indefinitely; 0 drains without waiting; otherwise DeadlineExceeded
  /// once the timeout passes with no push.
  StatusOr<Json> NextPush(int64_t timeout_ms = -1);

  /// Pushed lines already received and not yet consumed by NextPush.
  size_t BufferedPushes() const { return pushes_.size(); }

  /// Call with retry, backoff, and reconnect per options().retry. A
  /// failure is retried when it is retryable (IsRetryable) *and* the retry
  /// provably cannot duplicate server state: connect-phase failures and
  /// server error replies with code "Unavailable" (the server declared it
  /// rejected the request) retry for every method, while post-send
  /// transport failures — reset, short read, receive timeout — retry only
  /// for idempotent methods (IsIdempotent). A non-idempotent method
  /// (subscribe) hitting a post-send transport error fails immediately
  /// with the underlying error annotated "(not retried: ... not
  /// idempotent ...)" so the caller can re-establish state explicitly. On
  /// exhaustion, returns the last server error response if one was
  /// received, else the last transport error; a retry schedule that would
  /// overrun RetryPolicy::overall_deadline stops early with
  /// DeadlineExceeded.
  StatusOr<Json> CallWithRetry(const Json& request);

  const ClientOptions& options() const { return options_; }

 private:
  Status SendLine(std::string_view line);
  /// Reads until the response whose "id" equals `want` arrives, diverting
  /// pushes to the queue and discarding stale responses along the way.
  StatusOr<Json> ReadResponse(const Json& want);
  /// Reconnects to the last-connected port if the connection is down.
  Status EnsureConnected();

  ClientOptions options_;
  int fd_ = -1;
  uint16_t port_ = 0;
  LineReader reader_;
  /// Server-pushed lines awaiting NextPush, in arrival order.
  std::deque<Json> pushes_;
  uint64_t next_id_ = 1;
};

}  // namespace server
}  // namespace pfql

#endif  // PFQL_SERVER_CLIENT_H_
