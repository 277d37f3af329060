// pfqld: the pfql query daemon. Serves the newline-delimited JSON protocol
// of docs/SERVER.md over loopback TCP, executing probabilistic fixpoint
// and Markov chain queries on a bounded worker pool with per-request
// deadlines and a structural-hash result cache.
//
//   pfqld [--port N] [--workers N] [--queue N] [--cache N]
//         [--timeout-ms N] [--program NAME=FILE]... [--data NAME=FILE]...
//         [--faults SPEC] [--fault-seed N] [--quiet] [--log-json]
//
//   --port N          listen port on 127.0.0.1 (0 = ephemeral; the bound
//                     port is printed as the first stdout line in
//                     machine-parseable form, {"port":P}, followed by
//                     "pfqld listening on 127.0.0.1:P")
//   --workers N       query worker threads (default 4)
//   --queue N         admission-queue capacity; requests beyond it are
//                     rejected with an Unavailable "overloaded" error
//   --cache N         result-cache entries (0 disables caching)
//   --timeout-ms N    default per-request deadline (0 = none)
//   --program NAME=F  pre-parse and pre-lint a program into the registry
//   --data NAME=F     pre-load an instance into the registry
//   --faults SPEC     arm fault-injection points for chaos testing, e.g.
//                     "server.tcp.write=p0.1,util.thread_pool.run=p0.5:20"
//                     (same grammar as the PFQL_FAULTS env variable)
//   --fault-seed N    seed for probability-triggered faults
//   --log-json        one structured JSON log line per request on stderr
//                     (trace id, method, deadline left, cache outcome,
//                     degraded flag; schema in docs/OBSERVABILITY.md)
//
// Runs until SIGINT/SIGTERM. Exit status: 0 clean shutdown, 1 startup
// failure (including port already in use), 2 usage error (including a
// numeric flag outside its range, docs/SERVER.md §14).
#include <cstdio>

#include "server/daemon.h"

int Usage() {
  std::fprintf(stderr,
               "usage: pfqld [--port N] [--workers N] [--queue N] "
               "[--cache N]\n"
               "             [--timeout-ms N] [--program NAME=FILE]...\n"
               "             [--data NAME=FILE]... [--faults SPEC]\n"
               "             [--fault-seed N] [--quiet] [--log-json]\n");
  return 2;
}

int main(int argc, char** argv) {
  auto options = pfql::server::ParseDaemonArgs(argc - 1, argv + 1);
  if (!options.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 options.status().ToString().c_str());
    return Usage();
  }
  return pfql::server::RunDaemon(*options);
}
