// pfqlr: the pfql sharded-serving router. Spawns and supervises a fleet of
// pfqld worker processes, owns the listening socket, and proxies the
// NDJSON protocol of docs/SERVER.md to the fleet — consistent-hash
// sharding for queries, pinned streaming for subscriptions, broadcast for
// registrations, crash-tolerant failover throughout (docs/SERVER.md §16).
//
//   pfqlr [--port N] [--workers N] [--pfqld PATH] [--worker-arg ARG]...
//         [--probe-interval-ms N] [--probe-timeout-ms N]
//         [--restart-window-ms N] [--max-restarts N] [--faults SPEC]
//
//   --port N               listen port on 127.0.0.1 (0 = ephemeral; the
//                          bound port is printed as the first stdout line,
//                          {"port":P}, then "pfqlr listening on ...")
//   --workers N            pfqld worker processes to supervise (default 2)
//   --pfqld PATH           pfqld binary (default: next to this executable)
//   --worker-arg ARG       extra argv entry passed to every worker, after
//                          the implied "--port 0"; repeatable, e.g.
//                          --worker-arg --workers --worker-arg 2
//   --probe-interval-ms N  health-probe cadence (default 200)
//   --probe-timeout-ms N   per-probe deadline (default 1000)
//   --restart-window-ms N  circuit-breaker window (default 10000)
//   --max-restarts N       restarts tolerated per window before the
//                          breaker opens (default 5)
//   --faults SPEC          arm router-process fault points (router.probe,
//                          router.proxy, ...) for chaos testing
//
// Runs until SIGINT/SIGTERM; shuts the fleet down cleanly (SIGTERM, then
// SIGKILL on a deadline). Exit status: 0 clean shutdown, 1 startup
// failure, 2 usage error (including a numeric flag outside its range,
// docs/SERVER.md §14).
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>

#include <unistd.h>

#include "router/router.h"
#include "server/daemon.h"
#include "util/fault_injection.h"
#include "util/string_util.h"

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: pfqlr [--port N] [--workers N] [--pfqld PATH]\n"
      "             [--worker-arg ARG]... [--probe-interval-ms N]\n"
      "             [--probe-timeout-ms N] [--restart-window-ms N]\n"
      "             [--max-restarts N] [--faults SPEC]\n");
  return 2;
}

/// Default pfqld path: the directory this executable lives in.
std::string SiblingPfqld() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "pfqld";
  buf[n] = '\0';
  std::string path(buf);
  const size_t slash = path.rfind('/');
  if (slash == std::string::npos) return "pfqld";
  return path.substr(0, slash + 1) + "pfqld";
}

// The most pfqld processes --workers starts, and the most restarts
// --max-restarts tolerates per window.
constexpr uint64_t kMaxRouterWorkers = 64;
constexpr uint64_t kMaxRestarts = 1000;

}  // namespace

int main(int argc, char** argv) {
  using pfql::server::kMaxPort;
  using pfql::server::kMaxTimeoutMs;
  pfql::router::RouterOptions options;
  std::string faults;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "error: missing value for %s\n", arg.c_str());
      return Usage();
    }
    const char* value = argv[++i];
    // Reads `value` whole into *out, within [lo, hi].
    auto number = [&](uint64_t lo, uint64_t hi, auto* out) {
      auto v = pfql::ParseFlagValue(arg.substr(2), value, lo, hi);
      if (!v.ok()) {
        std::fprintf(stderr, "error: %s\n", v.status().ToString().c_str());
        return false;
      }
      *out = static_cast<std::remove_reference_t<decltype(*out)>>(*v);
      return true;
    };
    if (arg == "--port") {
      if (!number(0, kMaxPort, &options.port)) return Usage();
    } else if (arg == "--workers") {
      if (!number(1, kMaxRouterWorkers, &options.num_workers)) return Usage();
    } else if (arg == "--pfqld") {
      options.pfqld_binary = value;
    } else if (arg == "--worker-arg") {
      options.worker_args.push_back(value);
    } else if (arg == "--probe-interval-ms") {
      if (!number(1, kMaxTimeoutMs, &options.probe_interval_ms)) {
        return Usage();
      }
    } else if (arg == "--probe-timeout-ms") {
      if (!number(1, kMaxTimeoutMs, &options.probe_timeout_ms)) {
        return Usage();
      }
    } else if (arg == "--restart-window-ms") {
      if (!number(1, kMaxTimeoutMs, &options.restart_window_ms)) {
        return Usage();
      }
    } else if (arg == "--max-restarts") {
      if (!number(1, kMaxRestarts, &options.max_restarts_in_window)) {
        return Usage();
      }
    } else if (arg == "--faults") {
      faults = value;
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
      return Usage();
    }
  }
  if (options.pfqld_binary.empty()) options.pfqld_binary = SiblingPfqld();
  if (!faults.empty()) {
    pfql::Status status =
        pfql::fault::FaultRegistry::Instance().ArmFromSpec(faults);
    if (!status.ok()) {
      std::fprintf(stderr, "error: --faults: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }

  // Block the shutdown signals before Start() so every thread the router
  // (and LineWriters) spawn inherits the mask; sigwait below is race-free.
  // Children reset their own dispositions via pfqld's signal setup.
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGINT);
  sigaddset(&mask, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &mask, nullptr);

  pfql::router::Router router(options);
  pfql::Status status = router.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("{\"port\":%u}\n", static_cast<unsigned>(router.port()));
  std::printf("pfqlr listening on 127.0.0.1:%u (%d workers)\n",
              static_cast<unsigned>(router.port()), options.num_workers);
  std::fflush(stdout);

  int signo = 0;
  sigwait(&mask, &signo);
  std::fprintf(stderr, "%% pfqlr: received signal %d, shutting down\n",
               signo);
  router.Stop();
  return 0;
}
