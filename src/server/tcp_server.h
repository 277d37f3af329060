// Loopback NDJSON TCP front-end for a QueryService: accepts connections on
// 127.0.0.1, reads one JSON request per line, writes one JSON response per
// line, in order. Framing and concurrency only — all semantics (admission
// control, deadlines, caching) live in QueryService, which is why every
// behavior is testable without sockets.
#ifndef PFQL_SERVER_TCP_SERVER_H_
#define PFQL_SERVER_TCP_SERVER_H_

#include <cstddef>
#include <cstdint>

#include "server/loopback.h"
#include "server/query_service.h"
#include "util/status.h"

namespace pfql {
namespace server {

class TcpServer {
 public:
  /// `service` must outlive the server. `port` is bound on 127.0.0.1; 0
  /// picks an ephemeral port (read it back from port() after Start).
  explicit TcpServer(QueryService* service, uint16_t port = 0);

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds, listens, and starts accepting (loopback.h).
  Status Start() { return listener_.Start(port_); }
  /// Stops accepting, shuts down live connections, joins every thread.
  /// Idempotent.
  void Stop() { listener_.Stop(); }

  /// The bound port (valid after a successful Start).
  uint16_t port() const { return listener_.port(); }
  /// Connections accepted over the server's lifetime.
  size_t connections_accepted() const {
    return listener_.connections_accepted();
  }

 private:
  void ServeConnection(int fd);

  QueryService* const service_;
  const uint16_t port_;
  LoopbackListener listener_;
};

}  // namespace server
}  // namespace pfql

#endif  // PFQL_SERVER_TCP_SERVER_H_
