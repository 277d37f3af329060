#include "workloads.h"

#include <atomic>
#include <thread>
#include <tuple>
#include <utility>

#include "datalog/program.h"
#include "relational/instance.h"
#include "relational/text_io.h"
#include "router/hash_ring.h"
#include "server/executor.h"
#include "server/wire.h"
#include "util/random.h"

namespace pfql {
namespace e2e {

namespace {

// Inflationary reachability (Example 3.9): from every reached node one
// weighted out-edge fires; Prop 4.4 / Thm 4.3 answer Pr[cur(t)].
constexpr char kReach[] =
    "cur(0).\n"
    "c2(<X>, Y) @P :- cur(X), e(X, Y, P).\n"
    "cur(Y) :- c2(X, Y).\n";

// Noninflationary sparse walk: the constant key K makes one weighted
// choice among the edges leaving the current set, and cur(0) is
// re-asserted every step, so an n-node ring gives an n*n + 2 state chain.
constexpr char kWalk[] =
    "cur(0).\n"
    "mv(<K>, Y) @P :- one(K), cur(X), e(X, Y, P).\n"
    "cur(Y) :- mv(K, Y).\n";

// Noninflationary dense chain: k independent weighted binary choices
// re-made every step, 2^k + 1 states, every state reaching every other.
constexpr char kChoice[] = "pick(<K>, V) @W :- opt(K, V, W).\n";

using Edge = std::tuple<int, int, int>;

std::string EdgeRelation(const std::vector<Edge>& edges) {
  std::string out = "relation e(i, j, p) {\n";
  for (const auto& [i, j, p] : edges) {
    out += "  (" + std::to_string(i) + ", " + std::to_string(j) + ", " +
           std::to_string(p) + ")\n";
  }
  return out + "}\n";
}

/// Weight 1..4 of the e-th choice at node i under weight pattern
/// `pattern`. The exact solver's cost grows with the weights'
/// denominators, so weights are fixed per key rather than drawn from the
/// seed.
int PatternWeight(int pattern, int i, int e) {
  uint64_t z = static_cast<uint64_t>(pattern) * 0x9e3779b97f4a7c15ULL +
               static_cast<uint64_t>(i) * 0xbf58476d1ce4e5b9ULL +
               static_cast<uint64_t>(e) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  z *= 0xd6e8feb86659fd39ULL;
  z ^= z >> 29;
  return 1 + static_cast<int>(z % 4);
}

/// Circulant digraph: node i has edges to i + o (mod n) for each offset o.
std::string CirculantData(int n, const std::vector<int>& offsets,
                          int pattern) {
  std::vector<Edge> edges;
  for (int i = 0; i < n; ++i) {
    for (size_t e = 0; e < offsets.size(); ++e) {
      edges.emplace_back(i, (i + offsets[e]) % n,
                         PatternWeight(pattern, i, static_cast<int>(e)));
    }
  }
  return EdgeRelation(edges);
}

constexpr char kOneKey[] = "relation one(k) {\n  (0)\n}\n";

/// side x side torus walk: four neighbours per node.
std::string TorusData(int side, int pattern) {
  auto at = [&](int r, int c) {
    return ((r + side) % side) * side + (c + side) % side;
  };
  std::vector<Edge> edges;
  for (int r = 0; r < side; ++r) {
    for (int c = 0; c < side; ++c) {
      const int i = r * side + c;
      edges.emplace_back(at(r, c), at(r, c + 1), PatternWeight(pattern, i, 0));
      edges.emplace_back(at(r, c), at(r, c - 1), PatternWeight(pattern, i, 1));
      edges.emplace_back(at(r, c), at(r + 1, c), PatternWeight(pattern, i, 2));
      edges.emplace_back(at(r, c), at(r - 1, c), PatternWeight(pattern, i, 3));
    }
  }
  return kOneKey + EdgeRelation(edges);
}

/// k binary choices for kChoice.
std::string ChoiceData(int k, int pattern) {
  std::string out = "relation opt(k, v, w) {\n";
  for (int i = 0; i < k; ++i) {
    for (int v = 0; v < 2; ++v) {
      out += "  (" + std::to_string(i) + ", " + std::to_string(v) + ", " +
             std::to_string(PatternWeight(pattern, i, v)) + ")\n";
    }
  }
  return out + "}\n";
}

/// "g3" and the like: names of registered instances.
std::string Indexed(char prefix, int i) {
  std::string name(1, prefix);
  name += std::to_string(i);
  return name;
}

std::string Atom(const char* predicate, int64_t a) {
  return std::string(predicate) + "(" + std::to_string(a) + ")";
}

int64_t SamplerSeed(Rng* rng) {
  return 1 + static_cast<int64_t>(rng->NextIndex(1u << 30));
}

/// What a query reads: a program (registered name or inline text), an
/// instance (likewise) and an event. In the functions below, `event`
/// picks the event's node or choice.
struct Input {
  std::string program;
  std::string program_text;
  std::string data;
  std::string data_text;
  std::string event;
};

/// cur(v) for one of the nodes 1..n-1 (node 0 is where kReach and kWalk
/// start).
std::string NodeEvent(int n, int event) {
  return Atom("cur", 1 + event % (n - 1));
}

/// kReach over an n-node circulant graph with out-edges at `offsets`.
Input Reach(int n, const std::vector<int>& offsets, int pattern, int event) {
  return {"", kReach, "", CirculantData(n, offsets, pattern),
          NodeEvent(n, event)};
}

/// kReach registered as "reach" over the registered n-node graph `graph`.
Input NamedReach(const std::string& graph, int n, int event) {
  return {"reach", "", graph, "", NodeEvent(n, event)};
}

/// kWalk on a bidirectional n-ring: n * n + 2 states.
Input Walk(int n, int pattern, int event) {
  return {"", kWalk, "", kOneKey + CirculantData(n, {1, n - 1}, pattern),
          NodeEvent(n, event)};
}

/// kWalk on a side x side torus: side^4 + 2 states.
Input Torus(int side, int pattern, int event) {
  return {"", kWalk, "", TorusData(side, pattern),
          NodeEvent(side * side, event)};
}

/// kChoice over k binary choices: 2^k + 1 states.
Input Choice(int k, int pattern, int event) {
  return {"", kChoice, "", ChoiceData(k, pattern),
          "pick(" + std::to_string(event % k) + ", " +
              std::to_string(event / k % 2) + ")"};
}

/// `in` with its inline program replaced by the registered `name`.
Input Named(Input in, const std::string& name) {
  in.program = name;
  in.program_text.clear();
  return in;
}

Json Query(const char* method, const Input& in) {
  Json request = Json::Object();
  request.Set("method", method);
  if (!in.program.empty()) {
    request.Set("program", in.program);
  } else {
    request.Set("program_text", in.program_text);
  }
  if (!in.data.empty()) {
    request.Set("data", in.data);
  } else {
    request.Set("data_text", in.data_text);
  }
  if (!in.event.empty()) request.Set("event", in.event);
  return request;
}

size_t AddKey(Workload* w, Json request, Expect expect = Expect::kResult) {
  Key key;
  key.kind = request.Find("method")->AsString();
  key.line = request.Dump();
  Json traced = request;
  traced.Set("trace", true);
  key.traced_line = traced.Dump();
  key.request = std::move(request);
  key.expect = expect;
  w->keys.push_back(std::move(key));
  return w->keys.size() - 1;
}

std::vector<size_t> Range(size_t begin, size_t end) {
  std::vector<size_t> out;
  for (size_t i = begin; i < end; ++i) out.push_back(i);
  return out;
}

/// The pfqld seat pfqlr routes `request` to in a healthy `fleet`-worker
/// fleet: the router's own recipe, kind|target|CacheParams hashed to a slot.
int Owner(const Json& request, int fleet) {
  StatusOr<server::Request> parsed = server::ParseRequest(request);
  if (!parsed.ok()) return 0;
  std::vector<int> live;
  for (int i = 0; i < fleet; ++i) live.push_back(i);
  const std::string key = std::string(server::RequestKindToString(
                              parsed->kind)) +
                          '|' + parsed->target + '|' + parsed->CacheParams();
  return router::BuildSlotTable(live)[router::SlotOf(router::HashKey(key))];
}

/// Zipf ranking of cache_hot's 64 keys. Rank r takes a key of class r % 8
/// (kind r % 4, named when r % 8 >= 4) owned by worker (r + r / 8) % 2
/// when one is left, so the hot head alternates kinds and workers under
/// every seed instead of landing wherever the seed's events hash.
std::vector<size_t> BalancedRanking(const Workload& w) {
  std::vector<bool> used(64, false);
  std::vector<size_t> ranking;
  for (size_t r = 0; r < 64; ++r) {
    const int want = static_cast<int>((r + r / 8) % 2);
    size_t pick = 64;
    for (size_t k = r % 8; k < 64; k += 8) {
      if (used[k]) continue;
      if (pick == 64) pick = k;
      if (Owner(w.keys[k].request, w.fleet) == want) {
        pick = k;
        break;
      }
    }
    used[pick] = true;
    ranking.push_back(pick);
  }
  return ranking;
}

// ---- cache_hot: 64 cheap keys, Zipf(1.1), all cache hits ---------------
//
// Key r has kind r % 4 and names registered state when (r / 4) is odd;
// BalancedRanking orders the keys for the Zipf draw.
Workload CacheHot(uint64_t seed) {
  Workload w;
  w.name = "cache_hot";
  w.routed = true;
  w.fleet = 2;
  w.pool_workers = 2;
  // Two clients: with three, the clients, the router and both workers'
  // threads outnumber the cores, and the run-to-run spread grows.
  w.query_clients = 2;
  Rng rng(seed);
  w.programs = {{"reach", kReach}, {"walk", kWalk}, {"choice", kChoice}};
  for (int i = 0; i < 4; ++i) {
    w.instances[Indexed('g', i)] = CirculantData(6, {1, 2}, i);
  }
  for (int i = 0; i < 2; ++i) {
    w.instances[Indexed('k', i)] = ChoiceData(3, i);
  }
  for (int r = 0; r < 64; ++r) {
    const bool named = (r / 4) % 2 == 1;
    const int v = r / 8;
    const std::string graph = Indexed('g', v % 4);
    Json request;
    switch (r % 4) {
      case 0:
        request = Query("exact", named ? NamedReach(graph, 6, v)
                                       : Reach(6, {1, 2}, r, r));
        break;
      case 1:
        request = Query("approx", named ? NamedReach(graph, 6, v)
                                        : Reach(6, {1, 2}, r, r));
        request.Set("epsilon", 0.1).Set("delta", 0.1);
        request.Set("seed", SamplerSeed(&rng));
        break;
      case 2:
        if (named) {
          Input in = Named(Choice(3, r, v / 2), "choice");
          in.data = Indexed('k', v % 2);
          request = Query("forever", in);
        } else {
          request = Query("forever",
                          v % 2 == 0 ? Choice(3, r, r) : Walk(3, r, r));
        }
        break;
      default: {
        Input in = named       ? NamedReach(graph, 6, v)
                   : v % 2 == 0 ? Walk(4, r, r)
                                : Choice(4, r, r);
        in.event.clear();
        request = Query("plan", in);
        break;
      }
    }
    AddKey(&w, std::move(request));
  }
  Json ping = Json::Object();
  ping.Set("method", "ping");
  const size_t ping_key = AddKey(&w, std::move(ping));
  w.warm = Range(0, 64);
  w.draws = {{0.9, Draw::Mode::kZipf, BalancedRanking(w)},
             {0.1, Draw::Mode::kUniform, {ping_key}}};
  return w;
}

// ---- sampling: sampler loops, compiled stepping and streams ------------
Workload Sampling(uint64_t seed) {
  Workload w;
  w.name = "sampling";
  w.routed = false;
  w.pool_workers = 3;
  w.query_clients = 2;
  Rng rng(seed);
  // Four cost classes (times on a 4-core x86-64): cheap (compiled mcmc,
  // compiled trajectory, run: 0.5-7 ms), approx (~40 ms), interpreted
  // mcmc (~100 ms), interpreted trajectory (~175 ms). Their shares put
  // latency_p50_ms in the middle of the approx class and latency_p95_ms
  // in the middle of the slowest one, never on an edge between classes.
  std::vector<size_t> cheap, approx, mcmc, trajectory;
  auto add = [&](Json request, std::vector<size_t>* to) {
    request.Set("no_cache", true);
    to->push_back(AddKey(&w, std::move(request)));
    return to->back();
  };
  for (int i = 0; i < 4; ++i) {
    Json request = Query("approx", Reach(8, {1, 3, 4}, i, i));
    request.Set("epsilon", 0.1).Set("delta", 0.1);
    request.Set("seed", SamplerSeed(&rng));
    w.keys[add(std::move(request), &approx)].epsilon = 0.1;
  }
  for (int i = 0; i < 4; ++i) {
    Json request = Query("mcmc", Walk(4, i, i));
    request.Set("epsilon", 0.1).Set("delta", 0.1);
    request.Set("burn_in", 32);
    request.Set("backend", i < 2 ? "compiled" : "interpreted");
    request.Set("seed", SamplerSeed(&rng));
    const size_t k = add(std::move(request), i < 2 ? &cheap : &mcmc);
    w.keys[k].epsilon = 0.1;
    if (i < 2) w.warm.push_back(k);
  }
  for (int i = 0; i < 2; ++i) {
    Json request = Query("trajectory", Torus(4, i, i));
    request.Set("runs", 16).Set("steps", 20000);
    request.Set("backend", "compiled");
    request.Set("seed", SamplerSeed(&rng));
    w.warm.push_back(add(std::move(request), &cheap));
  }
  for (int i = 0; i < 2; ++i) {
    Json request = Query("trajectory", Walk(5, i, i));
    request.Set("runs", 8).Set("steps", 1000);
    request.Set("backend", "interpreted");
    request.Set("seed", SamplerSeed(&rng));
    add(std::move(request), &trajectory);
  }
  for (int i = 0; i < 2; ++i) {
    Input in = Reach(8, {1, 3, 4}, i, i);
    in.event.clear();
    Json request = Query("run", in);
    request.Set("seed", SamplerSeed(&rng));
    add(std::move(request), &cheap);
  }
  w.draws = {{0.3, Draw::Mode::kUniform, cheap},
             {0.4, Draw::Mode::kUniform, approx},
             {0.2, Draw::Mode::kUniform, mcmc},
             {0.1, Draw::Mode::kUniform, trajectory}};

  // One stream slot cycling through the three sampled targets. The streams
  // run for several scheduler quanta, so the slot's second (identical)
  // subscription finds the first still running and fuses. A second slot
  // would keep both scheduler threads busy next to two query requests, more
  // runnable threads than a 4-core machine has, and the run-to-run spread
  // of latency_p95_ms then exceeded 0.25.
  auto subscribe = [&](const std::string& target) {
    Json request;
    if (target == "approx") {
      request = Query("subscribe", Reach(8, {1, 3, 4}, 0, 0));
    } else if (target == "mcmc") {
      request = Query("subscribe", Walk(4, 0, 0));
      request.Set("burn_in", 32).Set("backend", "interpreted");
    } else {
      request = Query("subscribe", Walk(5, 0, 0));
      request.Set("runs", 8).Set("steps", 500);
      request.Set("backend", "interpreted");
    }
    request.Set("target", target);
    request.Set("epsilon", 0.05).Set("delta", 0.1);
    request.Set("max_samples", 4096);
    request.Set("seed", SamplerSeed(&rng));
    return request;
  };
  std::vector<Json> slot;
  for (const char* target : {"approx", "mcmc", "trajectory"}) {
    slot.push_back(subscribe(target));
  }
  w.stream_slots.push_back(std::move(slot));
  return w;
}

// ---- exact_chain: enumeration, exact solving, cold compiles, planner ---
Workload ExactChain(uint64_t seed) {
  Workload w;
  w.name = "exact_chain";
  w.routed = false;
  w.pool_workers = 2;
  w.query_clients = 2;
  Rng rng(seed);
  auto add = [&](Json request, Expect expect = Expect::kResult) {
    request.Set("no_cache", true);
    return AddKey(&w, std::move(request), expect);
  };
  std::vector<size_t> choice, walk, exact, partition, trajectory, rejected;
  for (int i = 0; i < 8; ++i) {
    choice.push_back(add(Query("forever", Choice(i < 4 ? 4 : 5, i, i))));
  }
  // The costliest class is `exact` on 9-node graphs: 10% of requests of
  // one shape, ~65 ms each on a 4-core x86-64, so latency_p95_ms falls
  // inside it rather than on the edge between clusters of different cost.
  // The 27-state walks share one weight pattern (~45 ms) to stay below it;
  // the exact solver's cost swings 4x across patterns at that size.
  for (int i = 0; i < 8; ++i) {
    walk.push_back(
        add(Query("forever", i < 4 ? Walk(4, i, i) : Walk(5, 6, i))));
  }
  for (int i = 0; i < 8; ++i) {
    const Input in =
        i < 4 ? Reach(9, {1, 3, 4}, i, i) : Reach(12, {1, 2}, i, i);
    exact.push_back(add(Query("exact", in)));
  }
  for (int i = 0; i < 4; ++i) {
    partition.push_back(add(Query("partition", Choice(8, i, i))));
  }
  // 64 distinct chains, twice CompiledChainCache's 32 entries: cycled in
  // order, every compile is cold.
  for (int i = 0; i < 64; ++i) {
    Json request = Query("trajectory", Walk(6 + i % 4, i, i));
    request.Set("runs", 4).Set("steps", 500);
    request.Set("backend", "compiled");
    request.Set("seed", SamplerSeed(&rng));
    trajectory.push_back(add(std::move(request)));
  }
  // 2^16 + 1 certified states against a 4,096-state budget: the planner
  // rejects these upfront with PFQL-E070.
  for (int i = 0; i < 2; ++i) {
    Json request = Query("forever", Choice(16, i, i));
    request.Set("max_states", 4096);
    rejected.push_back(add(std::move(request), Expect::kRejectE070));
  }
  w.draws = {{0.15, Draw::Mode::kUniform, choice},
             {0.15, Draw::Mode::kUniform, walk},
             {0.20, Draw::Mode::kUniform, exact},
             {0.15, Draw::Mode::kUniform, partition},
             {0.25, Draw::Mode::kCycle, trajectory},
             {0.10, Draw::Mode::kUniform, rejected}};
  return w;
}

/// Runs `request` in-process exactly as pfqld would after resolving it.
StatusOr<Json> Evaluate(const Workload& w, const Json& json) {
  PFQL_ASSIGN_OR_RETURN(server::Request request, server::ParseRequest(json));
  if (request.kind == server::RequestKind::kPing) {
    Json pong = Json::Object();
    pong.Set("pong", true);
    return pong;
  }
  auto lookup = [](const std::map<std::string, std::string>& registry,
                   const std::string& name) -> StatusOr<std::string> {
    auto it = registry.find(name);
    if (it == registry.end()) {
      return Status::NotFound("no registered entry '" + name + "'");
    }
    return it->second;
  };
  std::string program_text = request.program_text;
  if (!request.program.empty()) {
    PFQL_ASSIGN_OR_RETURN(program_text, lookup(w.programs, request.program));
  }
  std::string data_text = request.data_text;
  if (!request.data.empty()) {
    PFQL_ASSIGN_OR_RETURN(data_text, lookup(w.instances, request.data));
  }
  PFQL_ASSIGN_OR_RETURN(datalog::Program program,
                        datalog::ParseProgram(program_text));
  Instance edb;
  if (!data_text.empty()) {
    PFQL_ASSIGN_OR_RETURN(edb, ParseInstanceText(data_text));
  }
  return server::ExecuteQuery(request, program, edb, nullptr);
}

/// The exact query an approx/mcmc key estimates (exact resp. forever).
Json ExactCounterpart(const Json& request) {
  Json exact = Json::Object();
  const bool approx = request.Find("method")->AsString() == "approx";
  exact.Set("method", approx ? "exact" : "forever");
  for (const char* field :
       {"program", "program_text", "data", "data_text", "event"}) {
    if (const Json* value = request.Find(field)) exact.Set(field, *value);
  }
  return exact;
}

Status Golden(const Workload& w, Key* key) {
  StatusOr<Json> result = Evaluate(w, key->request);
  if (key->expect == Expect::kRejectE070) {
    if (result.ok() ||
        result.status().message().find("PFQL-E070") == std::string::npos) {
      return Status::Internal(w.name + ": key expected a PFQL-E070 "
                              "rejection: " + key->line.substr(0, 120));
    }
    return Status::OK();
  }
  if (!result.ok()) {
    return Status::Internal(w.name + ": golden failed (" +
                            result.status().ToString() +
                            "): " + key->line.substr(0, 120));
  }
  // Round-trip through the wire format, as a served payload is.
  PFQL_ASSIGN_OR_RETURN(key->golden, Json::Parse(result->Dump()));
  if (key->epsilon > 0) {
    PFQL_ASSIGN_OR_RETURN(Json exact,
                          Evaluate(w, ExactCounterpart(key->request)));
    key->has_exact = true;
    key->exact = exact.Find("probability_double")->AsDouble();
  }
  return Status::OK();
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"cache_hot", "sampling",
                                                 "exact_chain"};
  return names;
}

StatusOr<Workload> MakeWorkload(std::string_view name, uint64_t seed) {
  Workload w;
  if (name == "cache_hot") {
    w = CacheHot(seed);
  } else if (name == "sampling") {
    w = Sampling(seed);
  } else if (name == "exact_chain") {
    w = ExactChain(seed);
  } else {
    return Status::InvalidArgument("unknown workload '" + std::string(name) +
                                   "'");
  }
  w.seed = seed;
  return w;
}

Status ComputeGoldens(Workload* workload, int threads) {
  std::atomic<size_t> next{0};
  std::vector<Status> failures(static_cast<size_t>(threads), Status::OK());
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t i = next.fetch_add(1); i < workload->keys.size();
           i = next.fetch_add(1)) {
        Status status = Golden(*workload, &workload->keys[i]);
        if (!status.ok()) {
          failures[static_cast<size_t>(t)] = std::move(status);
          return;
        }
      }
    });
  }
  for (auto& thread : pool) thread.join();
  for (const Status& status : failures) PFQL_RETURN_NOT_OK(status);
  return Status::OK();
}

}  // namespace e2e
}  // namespace pfql
