#include "server/daemon.h"

#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "relational/text_io.h"
#include "server/tcp_server.h"
#include "util/fault_injection.h"
#include "util/string_util.h"

namespace pfql {
namespace server {

namespace {

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

StatusOr<std::pair<std::string, std::string>> SplitNameEqPath(
    const std::string& value, const std::string& flag) {
  const size_t eq = value.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= value.size()) {
    return Status::InvalidArgument("--" + flag +
                                   " expects NAME=PATH, got '" + value + "'");
  }
  return std::make_pair(value.substr(0, eq), value.substr(eq + 1));
}

}  // namespace

StatusOr<DaemonOptions> ParseDaemonArgs(int argc, char** argv) {
  DaemonOptions options;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quiet") {
      options.quiet = true;
      continue;
    }
    if (arg == "--log-json") {
      options.log_json = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument("missing value for " + arg);
    }
    const std::string value = argv[++i];
    if (arg == "--port") {
      PFQL_ASSIGN_OR_RETURN(uint64_t v,
                            ParseFlagValue("port", value, 0, kMaxPort));
      options.port = static_cast<uint16_t>(v);
    } else if (arg == "--workers") {
      PFQL_ASSIGN_OR_RETURN(
          options.service.workers,
          ParseFlagValue("workers", value, 1, kMaxDaemonWorkers));
    } else if (arg == "--queue") {
      PFQL_ASSIGN_OR_RETURN(options.service.queue_capacity,
                            ParseFlagValue("queue", value, 0, kMaxDaemonQueue));
    } else if (arg == "--cache") {
      PFQL_ASSIGN_OR_RETURN(options.service.cache_entries,
                            ParseFlagValue("cache", value, 0, kMaxDaemonCache));
    } else if (arg == "--timeout-ms") {
      PFQL_ASSIGN_OR_RETURN(
          uint64_t v, ParseFlagValue("timeout-ms", value, 0, kMaxTimeoutMs));
      options.service.default_timeout_ms = static_cast<int64_t>(v);
    } else if (arg == "--program") {
      PFQL_ASSIGN_OR_RETURN(auto pair, SplitNameEqPath(value, "program"));
      options.program_files.push_back(std::move(pair));
    } else if (arg == "--data") {
      PFQL_ASSIGN_OR_RETURN(auto pair, SplitNameEqPath(value, "data"));
      options.data_files.push_back(std::move(pair));
    } else if (arg == "--faults") {
      options.faults = value;
    } else if (arg == "--fault-seed") {
      PFQL_ASSIGN_OR_RETURN(
          options.fault_seed,
          ParseFlagValue("fault-seed", value, 0, UINT64_MAX));
    } else {
      return Status::InvalidArgument("unknown flag '" + arg + "'");
    }
  }
  return options;
}

int RunDaemon(const DaemonOptions& options) {
  // Arm chaos faults before serving (PFQL_FAULTS is loaded separately on
  // first registry access). A bad spec is a startup error, not a surprise.
  if (!options.faults.empty()) {
    Status status = fault::FaultRegistry::Instance().ArmFromSpec(
        options.faults);
    if (!status.ok()) {
      std::fprintf(stderr, "error: --faults: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }
  if (options.fault_seed != 0) {
    fault::FaultRegistry::Instance().SetSeed(options.fault_seed);
  }

  ServiceOptions service_options = options.service;
  if (options.log_json && !service_options.log_sink) {
    // One Dump() per request; a single fprintf keeps concurrent request
    // lines from interleaving mid-line (POSIX stdio locks per call).
    service_options.log_sink = [](const Json& line) {
      std::fprintf(stderr, "%s\n", line.Dump().c_str());
    };
  }
  QueryService service(service_options);
  for (const auto& [name, path] : options.program_files) {
    auto source = ReadFile(path);
    if (!source.ok()) {
      std::fprintf(stderr, "error: %s\n", source.status().ToString().c_str());
      return 1;
    }
    Status status = service.RegisterProgram(name, *source);
    if (!status.ok()) {
      std::fprintf(stderr, "error: program '%s': %s\n", name.c_str(),
                   status.ToString().c_str());
      return 1;
    }
  }
  for (const auto& [name, path] : options.data_files) {
    auto instance = LoadInstanceFile(path);
    if (!instance.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   instance.status().ToString().c_str());
      return 1;
    }
    Status status = service.RegisterInstance(name, *std::move(instance));
    if (!status.ok()) {
      std::fprintf(stderr, "error: instance '%s': %s\n", name.c_str(),
                   status.ToString().c_str());
      return 1;
    }
  }

  // Block SIGINT/SIGTERM before starting the server so every thread the
  // server spawns inherits the mask and sigwait below is race-free.
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGINT);
  sigaddset(&mask, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &mask, nullptr);

  TcpServer tcp(&service, options.port);
  Status status = tcp.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  // The first stdout line is machine-parseable: supervisors (pfqlr) and
  // tests spawning `--port 0` workers read the bound port from it without
  // racing on a fixed port. The human-readable line follows for operators
  // (and the existing CI greps).
  std::printf("{\"port\":%u}\n", static_cast<unsigned>(tcp.port()));
  std::printf("pfqld listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(tcp.port()));
  std::fflush(stdout);
  if (!options.quiet) {
    std::fprintf(stderr,
                 "%% %zu workers, queue %zu, cache %zu entries; "
                 "Ctrl-C to stop\n",
                 options.service.workers, options.service.queue_capacity,
                 options.service.cache_entries);
    const auto armed = fault::FaultRegistry::Instance().ArmedPoints();
    if (!armed.empty()) {
      std::fprintf(stderr, "%% CHAOS: %zu fault point(s) armed:",
                   armed.size());
      for (const auto& point : armed) {
        std::fprintf(stderr, " %s", point.c_str());
      }
      std::fprintf(stderr, "\n");
    }
  }

  int signo = 0;
  sigwait(&mask, &signo);
  if (!options.quiet) {
    std::fprintf(stderr, "%% received signal %d, shutting down\n", signo);
  }
  tcp.Stop();
  return 0;
}

}  // namespace server
}  // namespace pfql
