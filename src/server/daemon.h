// The pfqld daemon driver, shared by the standalone `pfqld` binary and
// `pfql serve`: argument parsing, program/instance preloading, TCP serving
// on loopback, and clean SIGINT/SIGTERM shutdown.
#ifndef PFQL_SERVER_DAEMON_H_
#define PFQL_SERVER_DAEMON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "server/query_service.h"
#include "util/status.h"

namespace pfql {
namespace server {

/// Bounds of the numeric flags of pfqld (and of `pfql client` and pfqlr
/// where they take the same quantity; docs/SERVER.md §14). A value past
/// its bound is InvalidArgument, so nothing is sized or started from it.
inline constexpr uint64_t kMaxPort = 65535;
inline constexpr uint64_t kMaxDaemonWorkers = 256;
inline constexpr uint64_t kMaxDaemonQueue = 1 << 20;
inline constexpr uint64_t kMaxDaemonCache = 1 << 20;
inline constexpr uint64_t kMaxTimeoutMs = 86'400'000;  // one day

struct DaemonOptions {
  /// --port; 0 picks an ephemeral port (printed as {"port":N}).
  uint16_t port = 0;
  ServiceOptions service;
  /// name=path pairs preloaded into the registry before serving.
  std::vector<std::pair<std::string, std::string>> program_files;
  std::vector<std::pair<std::string, std::string>> data_files;
  /// Fault-injection spec armed at startup (--faults; same grammar as the
  /// PFQL_FAULTS environment variable). Empty = nothing armed here.
  std::string faults;
  /// Seed for probability-triggered faults (--fault-seed); applied after
  /// `faults` is armed. 0 = keep the registry default.
  uint64_t fault_seed = 0;
  /// Suppress the startup banner. The {"port":N} line and the "listening
  /// on" line always print — supervisors and clients parse them to
  /// discover an ephemeral port.
  bool quiet = false;
  /// Emit one structured JSON log line per served request on stderr
  /// (--log-json; schema in docs/OBSERVABILITY.md).
  bool log_json = false;
};

/// Parses daemon flags (see tools/pfqld.cpp for the list); `argv[0]` is the
/// first flag, not the binary name.
StatusOr<DaemonOptions> ParseDaemonArgs(int argc, char** argv);

/// Loads the registries, serves until SIGINT/SIGTERM, then shuts down.
/// Returns the process exit code.
int RunDaemon(const DaemonOptions& options);

}  // namespace server
}  // namespace pfql

#endif  // PFQL_SERVER_DAEMON_H_
