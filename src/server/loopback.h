// The loopback NDJSON transport of pfqld (TcpServer), pfqlr (Router) and
// Client: one 127.0.0.1 listener, one '\n'-framed line reader, one connect.
// Every raw socket call of the serving stack lives here.
#ifndef PFQL_SERVER_LOOPBACK_H_
#define PFQL_SERVER_LOOPBACK_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/metrics.h"
#include "util/status.h"

namespace pfql {
namespace server {

/// Longest request line either front end buffers; a longer one gets an
/// InvalidArgument response and the connection is closed.
inline constexpr size_t kMaxLineBytes = 4u << 20;
/// Per-connection LineWriter queue depth of both front ends.
inline constexpr size_t kWriteQueueLines = 256;

/// Connects a blocking socket to 127.0.0.1:port; the caller owns the fd.
StatusOr<int> ConnectLoopback(uint16_t port);

/// Splits a socket's byte stream into lines.
class LineReader {
 public:
  /// `max_line_bytes` caps a line still being received (0 = no cap).
  /// `fault_point` (optional) is checked after every successful recv; a
  /// firing drops the connection before the bytes are framed.
  explicit LineReader(int fd = -1, size_t max_line_bytes = 0,
                      const char* fault_point = nullptr);

  /// The next line without its '\n' or a trailing '\r', valid until the
  /// next call. A transport failure is a retryable Unavailable; a partial
  /// line past the cap is InvalidArgument, worded for the wire.
  StatusOr<std::string_view> Next();
  /// True when Next() can return a line without touching the socket.
  bool HasLine() const;

 private:
  int fd_;
  size_t max_line_bytes_;
  const char* fault_point_;
  std::string buffer_;
  size_t consumed_ = 0;  // bytes of buffer_ already returned
};

/// Listens on 127.0.0.1 and runs `serve(fd)` on a thread per connection,
/// closing `fd` when it returns. Finished threads are joined at the next
/// accept and the rest by Stop(), so a long-lived server holds threads for
/// open connections only. A connection is refused (closed) instead of
/// terminating the process when its thread cannot start, or when `serve`
/// throws std::system_error because a thread it needs cannot.
class LoopbackListener {
 public:
  /// `accepted` is incremented once per accepted connection.
  LoopbackListener(std::function<void(int fd)> serve,
                   metrics::Counter* accepted);
  ~LoopbackListener();

  LoopbackListener(const LoopbackListener&) = delete;
  LoopbackListener& operator=(const LoopbackListener&) = delete;

  /// Binds 127.0.0.1:port (0 = ephemeral) and starts accepting. A taken
  /// port is Unavailable, "already in use".
  Status Start(uint16_t port);
  /// Stops accepting, shuts live connections down, joins every thread.
  /// Idempotent; Start may follow.
  void Stop();

  /// The bound port (valid after a successful Start).
  uint16_t port() const { return port_; }
  size_t connections_accepted() const {
    return accepted_total_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  void RunConnection(int fd);

  const std::function<void(int fd)> serve_;
  metrics::Counter* const accepted_;
  std::atomic<size_t> accepted_total_{0};
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};
  std::mutex lifecycle_mu_;  // serializes Start and Stop
  std::mutex mu_;
  std::unordered_map<int, std::thread> live_;  // under mu_; by fd
  std::vector<std::thread> finished_;          // under mu_; to join
  std::thread accept_thread_;
};

}  // namespace server
}  // namespace pfql

#endif  // PFQL_SERVER_LOOPBACK_H_
