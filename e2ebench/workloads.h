// The three seeded serving workloads of bench_e2e. A workload is a server
// topology plus a traffic mix: the programs and instances registered at
// set-up, the request keys the closed-loop clients draw from (with the
// share and distribution of each draw), and the golden answer of every
// key, computed in-process with server::ExecuteQuery — the same executor
// the daemon runs — so a served answer can be checked byte for byte.
//
// Everything a workload sends is generated from its seed, which picks the
// sampler seeds and the order of the traffic. Sizes, graph shapes, weights
// and events stay fixed per key, so every seed costs the same: the exact
// solver's cost moved up to 2x between seeds when the seed relabelled
// nodes (the state order, and with it the growth of the rationals,
// changed) and 1.3x when it picked the events (an event decides how many
// exact probabilities, of fixpoints or of stationary states, are summed
// into the answer).
#ifndef PFQL_E2EBENCH_WORKLOADS_H_
#define PFQL_E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"
#include "util/status.h"

namespace pfql {
namespace e2e {

/// Result-cache entries of every pfqld (--cache).
constexpr int kCacheEntries = 256;
/// Exponent of Zipf draws.
constexpr double kZipfExponent = 1.1;

/// How a response to a key is judged.
enum class Expect {
  kResult,      ///< ok:true and a "result" equal to the golden payload
  kRejectE070,  ///< ok:false with the planner's PFQL-E070 rejection
};

struct Key {
  std::string kind;         ///< wire method
  Json request;             ///< request object, without "trace"
  std::string line;         ///< request.Dump()
  std::string traced_line;  ///< the same request with "trace":true
  Expect expect = Expect::kResult;
  Json golden;  ///< expected "result" payload (kResult)
  /// approx/mcmc keys on chains small enough to solve exactly: the exact
  /// probability the estimate targets, for eval.ci_miss_rate.
  bool has_exact = false;
  double exact = 0.0;
  double epsilon = 0.0;
};

/// A share of a client's requests and where they come from.
struct Draw {
  enum class Mode {
    kUniform,   ///< uniform over `keys`
    kZipf,      ///< Zipf(kZipfExponent) over `keys`, rank = position
    kCycle,     ///< `keys` in order, one shared cursor across clients
  };
  double share = 0.0;
  Mode mode = Mode::kUniform;
  std::vector<size_t> keys;
};

struct Workload {
  std::string name;
  uint64_t seed = 0;
  /// pfqlr in front of `fleet` pfqld processes, or one pfqld when false.
  bool routed = false;
  int fleet = 1;
  int pool_workers = 3;  ///< --workers of each pfqld
  int query_clients = 3;  ///< closed-loop query connections

  /// Registered by name at set-up (and resolved by name in goldens).
  std::map<std::string, std::string> programs;
  std::map<std::string, std::string> instances;

  std::vector<Key> keys;
  /// Keys requested once during set-up: those whose result the server
  /// keeps (result cache, compile memo).
  std::vector<size_t> warm;
  std::vector<Draw> draws;

  /// Streaming connection (empty = none): each slot holds two identical
  /// subscriptions (the second fuses onto the first) and cycles through
  /// its subscribe requests as the streams complete.
  std::vector<std::vector<Json>> stream_slots;
};

const std::vector<std::string>& WorkloadNames();

/// Generates the named workload for `seed`; goldens are left empty.
StatusOr<Workload> MakeWorkload(std::string_view name, uint64_t seed);

/// Fills every key's golden (and exact value where one is cheap) by
/// running the request in-process on `threads` threads. Fails when a key
/// does not evaluate as its Expect says.
Status ComputeGoldens(Workload* workload, int threads);

}  // namespace e2e
}  // namespace pfql

#endif  // PFQL_E2EBENCH_WORKLOADS_H_
