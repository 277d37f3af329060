#include "server/client.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <thread>

#include "server/line_writer.h"
#include "server/wire.h"

namespace pfql {
namespace server {

Status Client::Connect(uint16_t port) {
  Disconnect();
  PFQL_ASSIGN_OR_RETURN(fd_, ConnectLoopback(port));
  reader_ = LineReader(fd_);
  if (options_.retry.attempt_timeout.count() > 0) {
    // Per-attempt receive timeout; an expired one surfaces from the reader
    // as a retryable Unavailable.
    const int64_t ms = options_.retry.attempt_timeout.count();
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(ms / 1000);
    tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  port_ = port;
  return Status::OK();
}

void Client::Disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Client::EnsureConnected() {
  if (connected()) return Status::OK();
  if (port_ == 0) return Status::FailedPrecondition("not connected");
  return Connect(port_);
}

Status Client::SendLine(std::string_view line) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  std::string out(line);
  out += '\n';
  if (!WriteAll(fd_, out.data(), out.size())) {
    return Status::Unavailable(std::string("send: ") + std::strerror(errno));
  }
  return Status::OK();
}

StatusOr<std::string> Client::RoundTrip(std::string_view request_line) {
  PFQL_RETURN_NOT_OK(SendLine(request_line));
  PFQL_ASSIGN_OR_RETURN(std::string_view line, reader_.Next());
  return std::string(line);
}

StatusOr<Json> Client::Call(const Json& request) {
  // Tag the request so the response can be routed by id — on a connection
  // with live subscriptions, pushed update lines arrive interleaved ahead
  // of the response and must not be mistaken for it.
  Json tagged = request;
  if (tagged.Find("id") == nullptr) {
    tagged.Set("id", "c-" + std::to_string(next_id_++));
  }
  const Json want = *tagged.Find("id");
  PFQL_RETURN_NOT_OK(SendLine(tagged.Dump()));
  return ReadResponse(want);
}

StatusOr<Json> Client::ReadResponse(const Json& want) {
  const std::string want_key = want.Dump();
  for (;;) {
    PFQL_ASSIGN_OR_RETURN(std::string_view line, reader_.Next());
    auto parsed = Json::Parse(line);
    if (!parsed.ok()) return parsed.status();
    if (parsed->Find("event") != nullptr) {
      pushes_.push_back(*std::move(parsed));
      continue;
    }
    const Json* id = parsed->Find("id");
    // A missing/null id means the server could not parse the request line
    // and so could not echo the id — that error is our answer.
    if (id == nullptr || id->is_null() || id->Dump() == want_key) {
      return *std::move(parsed);
    }
    // Otherwise: a stale response to an earlier attempt that timed out
    // client-side after the server had queued its reply. Skip it.
  }
}

StatusOr<std::string> Client::Subscribe(const Json& request) {
  Json req = request;
  req.Set("method", "subscribe");
  PFQL_ASSIGN_OR_RETURN(Json reply, Call(req));
  const Json* ok = reply.Find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->AsBool()) {
    const Json* error = reply.Find("error");
    const Json* message =
        error != nullptr ? error->Find("message") : nullptr;
    return Status::FailedPrecondition(
        "subscribe rejected: " +
        (message != nullptr && message->is_string() ? message->AsString()
                                                    : reply.Dump()));
  }
  const Json* result = reply.Find("result");
  const Json* sub = result != nullptr ? result->Find("sub") : nullptr;
  if (sub == nullptr || !sub->is_string()) {
    return Status::Internal("subscribe ack carries no subscription id: " +
                            reply.Dump());
  }
  return sub->AsString();
}

StatusOr<Json> Client::NextPush(int64_t timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (!pushes_.empty()) {
      Json push = std::move(pushes_.front());
      pushes_.pop_front();
      return push;
    }
    if (fd_ < 0) return Status::FailedPrecondition("not connected");
    // Only hit the socket when the framing buffer has no complete line.
    if (!reader_.HasLine()) {
      int wait_ms = -1;
      if (timeout_ms >= 0) {
        const auto left = std::chrono::duration_cast<
            std::chrono::milliseconds>(deadline -
                                       std::chrono::steady_clock::now());
        wait_ms = static_cast<int>(std::max<int64_t>(0, left.count()));
      }
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, wait_ms);
      if (ready < 0) {
        if (errno == EINTR) continue;
        return Status::Unavailable(std::string("poll: ") +
                                   std::strerror(errno));
      }
      if (ready == 0) {
        return Status::DeadlineExceeded(
            "no subscription push within " + std::to_string(timeout_ms) +
            " ms");
      }
    }
    PFQL_ASSIGN_OR_RETURN(std::string_view line, reader_.Next());
    auto parsed = Json::Parse(line);
    if (!parsed.ok()) return parsed.status();
    if (parsed->Find("event") != nullptr) {
      pushes_.push_back(*std::move(parsed));
    }
    // Responses landing here answer nothing the caller is waiting on
    // (their Call already returned or timed out) — drop them.
  }
}

StatusOr<Json> Client::CallWithRetry(const Json& request) {
  // Only idempotent methods may be *resent after the request hit the
  // wire*: a post-send transport error leaves it unknown whether the
  // server executed the request, and replaying a non-idempotent method
  // (subscribe) could duplicate server state — e.g. a retry after a short
  // read would open a second live subscription the caller never learns
  // about. Two failure classes stay retryable for every method, because
  // neither can have executed the request: connect-phase failures (nothing
  // was sent) and structured "Unavailable" error replies (the server
  // answered that it rejected the request without side effects).
  bool idempotent = false;
  std::string method_name;
  if (const Json* method = request.Find("method");
      method != nullptr && method->is_string()) {
    method_name = method->AsString();
    StatusOr<RequestKind> kind = RequestKindFromString(method_name);
    idempotent = kind.ok() && IsIdempotent(*kind);
  }
  // The refusal is explicit: the caller sees *why* the transient error was
  // not retried instead of wondering why their retry policy was ignored.
  auto refuse = [&method_name](const Status& status) {
    return Status(status.code(),
                  status.message() + " (not retried: method '" +
                      method_name +
                      "' is not idempotent, so a resend after a transport "
                      "error could duplicate server state)");
  };

  const RetryPolicy& policy = options_.retry;
  const int attempts = std::max(1, policy.max_attempts);
  Backoff backoff(policy);
  const auto start = std::chrono::steady_clock::now();
  const bool bounded = policy.overall_deadline.count() > 0;
  const auto deadline = start + policy.overall_deadline;

  Status last_transport = Status::OK();
  std::optional<Json> last_error_reply;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      const auto delay = backoff.NextDelay();
      if (bounded && std::chrono::steady_clock::now() + delay >= deadline) {
        return Status::DeadlineExceeded(
            "retry budget exhausted after " + std::to_string(attempt) +
            " attempt(s): " +
            (last_transport.ok() ? std::string("server overloaded")
                                 : last_transport.message()));
      }
      std::this_thread::sleep_for(delay);
    }

    Status conn = EnsureConnected();
    if (!conn.ok()) {
      // Nothing was sent, so reconnecting is safe for any method.
      if (!IsRetryable(conn)) return conn;
      last_transport = std::move(conn);
      continue;
    }
    StatusOr<Json> reply = Call(request);
    if (!reply.ok()) {
      // The stream is in an unknown state after any transport failure
      // (half a response may be buffered); reconnect before retrying.
      Disconnect();
      if (!IsRetryable(reply.status())) return reply.status();
      if (!idempotent) return refuse(reply.status());
      last_transport = reply.status();
      continue;
    }

    // A parsed reply: retry only server-declared-transient errors
    // ("Unavailable" = overload shedding / injected faults); everything
    // else is the caller's answer. An error reply is safe to retry for
    // any method — the server declared it rejected the request.
    const Json* ok_field = reply->Find("ok");
    const bool server_ok =
        ok_field != nullptr && ok_field->is_bool() && ok_field->AsBool();
    if (!server_ok && attempt + 1 < attempts) {
      const Json* error = reply->Find("error");
      const Json* code = error != nullptr ? error->Find("code") : nullptr;
      if (code != nullptr && code->is_string() &&
          code->AsString() == "Unavailable") {
        last_error_reply = *std::move(reply);
        continue;
      }
    }
    return reply;
  }
  if (last_error_reply.has_value()) return *std::move(last_error_reply);
  return last_transport;
}

}  // namespace server
}  // namespace pfql
