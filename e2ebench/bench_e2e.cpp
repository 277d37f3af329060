// bench_e2e: the end-to-end serving benchmark of pfql.
//
// For each workload (workloads.h) it spawns fresh servers with the public
// router::WorkerProcess::Spawn (pfqlr in front of a pfqld fleet, or one
// pfqld), drives seeded closed-loop traffic over the NDJSON wire, checks
// every answer against a golden computed in-process, and prints every
// metric by name with its unit. The last stdout line is one JSON object:
//
//   {"correct":true,"attempted":N,"failed":0,
//    "metrics":{"latency_p50_ms":{"value":0.81,"unit":"ms"},...}}
//
//   bench_e2e [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//             [--warmup S] [--setups N] [--out FILE] [--trace-dir DIR]
//
// --trace 0 measures one untraced window of S seconds and reports the
// end-to-end metrics; throughput and latency are scaled to the reference
// machine speed of speed_probe.h (the readings as taken are printed as
// raw.* lines and written to --out). --trace 1 splits S into an untraced
// half (counter deltas, and the baseline of the tracing overhead) and a
// half with trace:true on every query, and reports the per-layer metrics;
// the span trees of that half go to DIR/<workload>-seed<N>.json as Chrome
// trace events. README.md catalogs both metric lists.
//
// The load comes from this one process: at most three client connections,
// one thread each, plus the main thread, which sets up, scrapes metrics
// and pings. Every client waits for each reply (a closed loop).
#include <signal.h>
#include <sys/prctl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "datalog/program.h"
#include "datalog/translate.h"
#include "relational/text_io.h"
#include "router/worker.h"
#include "server/client.h"
#include "server/wire.h"
#include "spans.h"
#include "speed_probe.h"
#include "summary.h"
#include "util/json.h"
#include "util/random.h"
#include "workloads.h"

using namespace pfql;
using namespace pfql::e2e;

namespace {

using Clock = std::chrono::steady_clock;

double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

void SleepSeconds(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

double Median(std::vector<double> values) {
  return values.empty() ? 0.0 : Summarize(std::move(values)).p50;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---- Options --------------------------------------------------------------

struct Options {
  std::vector<std::string> workloads = WorkloadNames();
  uint64_t seed = 1;
  double seconds = 10.0;
  double warmup = 2.0;
  bool trace = false;
  int setups = 0;  ///< 0: at least 3, more while they take under 1.5 s
  std::string out;
  std::string trace_dir = ".bench_build/traces";
};

int Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e [--workload NAME|all] [--seed N] "
               "[--seconds S] [--trace 0|1]\n"
               "                 [--warmup S] [--setups N] [--out FILE] "
               "[--trace-dir DIR]\n");
  return 2;
}

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      if (value != "all") options->workloads = {value};
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--warmup") {
      options->warmup = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options->trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else if (flag == "--setups") {
      options->setups = std::atoi(value.c_str());
    } else if (flag == "--out") {
      options->out = value;
    } else if (flag == "--trace-dir") {
      options->trace_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return options->seconds > 0 && options->warmup >= 0 && options->setups >= 0;
}

// ---- Server processes -----------------------------------------------------

/// VmHWM (peak resident set) of `pid` in KiB, 0 when unreadable.
double PeakRssKb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6);
  }
  return 0.0;
}

/// utime + stime of `pid` in milliseconds, 0 when unreadable.
double CpuMs(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const size_t paren = stat.rfind(')');
  if (paren == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(paren + 2));
  std::string field;
  double ticks = 0.0;
  // Fields after the command: state(3) ... utime(14) stime(15).
  for (int index = 3; index <= 15 && fields >> field; ++index) {
    if (index >= 14) ticks += std::atof(field.c_str());
  }
  return ticks * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Waits until `pid` is gone, reaping it when it is our child (orphaned
/// pfqld workers are re-parented to this process, a child subreaper).
void AwaitGone(pid_t pid) {
  for (int i = 0; i < 400; ++i) {
    if (::waitpid(pid, nullptr, WNOHANG) == pid) return;
    if (::kill(pid, 0) != 0 && errno == ESRCH) return;
    if (i == 200) ::kill(pid, SIGKILL);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

/// The servers of one workload: pfqlr plus its pfqld fleet, or one pfqld.
class Fleet {
 public:
  static StatusOr<std::unique_ptr<Fleet>> Start(const Workload& w) {
    router::WorkerSpawnOptions spawn;
    const std::string pool = std::to_string(w.pool_workers);
    const std::string cache = std::to_string(kCacheEntries);
    if (w.routed) {
      spawn.binary = PFQLR_BINARY;
      spawn.extra_args = {"--workers", std::to_string(w.fleet),
                          "--pfqld", PFQLD_BINARY,
                          "--worker-arg", "--workers", "--worker-arg", pool,
                          "--worker-arg", "--cache", "--worker-arg", cache,
                          "--worker-arg", "--quiet"};
    } else {
      spawn.binary = PFQLD_BINARY;
      spawn.extra_args = {"--workers", pool, "--cache", cache, "--quiet"};
    }
    PFQL_ASSIGN_OR_RETURN(std::unique_ptr<router::WorkerProcess> process,
                          router::WorkerProcess::Spawn(spawn));
    std::unique_ptr<Fleet> fleet(new Fleet(std::move(process)));
    fleet->pids_.push_back(fleet->process_->pid());
    if (!w.routed) {
      fleet->worker_ports_.push_back(fleet->process_->port());
      return fleet;
    }
    server::Client client;
    PFQL_RETURN_NOT_OK(client.Connect(fleet->port()));
    Json request = Json::Object();
    request.Set("method", "router_stats");
    PFQL_ASSIGN_OR_RETURN(Json reply, client.Call(request));
    const Json* workers = reply.Find("result") != nullptr
                              ? reply.Find("result")->Find("workers")
                              : nullptr;
    if (workers == nullptr || !workers->is_array() ||
        static_cast<int>(workers->size()) != w.fleet) {
      return Status::Internal("router_stats lists no fleet: " + reply.Dump());
    }
    for (const Json& worker : workers->items()) {
      fleet->worker_ports_.push_back(
          static_cast<uint16_t>(worker.Find("port")->AsInt()));
      fleet->pids_.push_back(static_cast<pid_t>(worker.Find("pid")->AsInt()));
    }
    return fleet;
  }

  ~Fleet() {
    process_->Terminate();
    if (!process_->WaitExit(5000)) {
      process_->Kill();
      process_->WaitExit(2000);
    }
    for (size_t i = 1; i < pids_.size(); ++i) AwaitGone(pids_[i]);
  }

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// The port clients connect to (the router's when routed).
  uint16_t port() const { return process_->port(); }
  /// The pfqld ports (the process itself when direct).
  const std::vector<uint16_t>& worker_ports() const { return worker_ports_; }
  /// Every server process, router first.
  const std::vector<pid_t>& pids() const { return pids_; }
  bool routed() const { return pids_.size() > 1; }

 private:
  explicit Fleet(std::unique_ptr<router::WorkerProcess> process)
      : process_(std::move(process)) {}

  std::unique_ptr<router::WorkerProcess> process_;
  std::vector<uint16_t> worker_ports_;
  std::vector<pid_t> pids_;
};

server::ClientOptions ClientTimeouts() {
  server::ClientOptions options;
  options.retry.attempt_timeout = std::chrono::milliseconds(60000);
  return options;
}

// ---- Judging answers ------------------------------------------------------

bool IsOk(const Json& response) {
  const Json* ok = response.Find("ok");
  return ok != nullptr && ok->is_bool() && ok->AsBool();
}

/// True when `response` answers `key` as its golden says.
bool Judge(const Key& key, const Json& response, std::string* why) {
  if (key.expect == Expect::kRejectE070) {
    const Json* error = response.Find("error");
    const Json* message = error != nullptr ? error->Find("message") : nullptr;
    if (!IsOk(response) && message != nullptr && message->is_string() &&
        message->AsString().find("PFQL-E070") != std::string::npos) {
      return true;
    }
    *why = "expected a PFQL-E070 rejection";
    return false;
  }
  if (!IsOk(response)) {
    *why = "error response";
    return false;
  }
  const Json* result = response.Find("result");
  if (result == nullptr || *result != key.golden) {
    *why = "answer differs from the golden " + key.golden.Dump().substr(0, 160);
    return false;
  }
  return true;
}

// ---- Traffic --------------------------------------------------------------

const std::vector<std::string>& Kinds() {
  static const std::vector<std::string> kinds = {
      "ping",      "exact",      "approx", "forever", "mcmc",
      "partition", "trajectory", "run",    "plan"};
  return kinds;
}

uint8_t KindIndex(const std::string& kind) {
  const auto& kinds = Kinds();
  return static_cast<uint8_t>(
      std::find(kinds.begin(), kinds.end(), kind) - kinds.begin());
}

/// Shared across a workload's clients: the cursor of each kCycle draw.
struct SharedTraffic {
  explicit SharedTraffic(size_t draws)
      : cursors(new std::atomic<size_t>[draws]) {
    for (size_t i = 0; i < draws; ++i) cursors[i] = 0;
  }
  std::unique_ptr<std::atomic<size_t>[]> cursors;
};

/// One client's request stream. Draws are dealt from a shuffled deck that
/// holds each draw in proportion to its share, and a uniform draw walks a
/// shuffled order of its keys, so every window sends the workload's mix
/// itself rather than a binomial sample of it: request costs span 1000x,
/// so a sampled mix would move throughput from run to run. Zipf draws stay
/// independent.
class Traffic {
 public:
  Traffic(const Workload& w, SharedTraffic* shared, uint64_t stream)
      : w_(w), shared_(shared), rng_(w.seed * 1000003 + stream) {
    std::vector<long> counts;
    long unit = 0;
    for (const Draw& draw : w.draws) {
      counts.push_back(std::lround(draw.share * 100));
      unit = std::gcd(unit, counts.back());
      std::vector<double> cdf;
      if (draw.mode == Draw::Mode::kZipf) {
        double sum = 0.0;
        for (size_t r = 0; r < draw.keys.size(); ++r) {
          sum += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
          cdf.push_back(sum);
        }
        for (double& c : cdf) c /= sum;
      }
      zipf_cdf_.push_back(std::move(cdf));
      orders_.push_back(draw.keys);
    }
    for (size_t d = 0; d < counts.size(); ++d) {
      for (long i = 0; i < counts[d] / unit; ++i) deck_.push_back(d);
    }
    positions_.assign(orders_.size(), 0);
  }

  const Key& Pick() {
    const size_t d = Deal(&deck_, &deck_position_);
    const Draw& draw = w_.draws[d];
    switch (draw.mode) {
      case Draw::Mode::kUniform:
        return w_.keys[Deal(&orders_[d], &positions_[d])];
      case Draw::Mode::kZipf: {
        const std::vector<double>& cdf = zipf_cdf_[d];
        const size_t r = static_cast<size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), rng_.NextDouble()) -
            cdf.begin());
        return w_.keys[draw.keys[std::min(r, cdf.size() - 1)]];
      }
      case Draw::Mode::kCycle:
        break;
    }
    return w_.keys[draw.keys[shared_->cursors[d].fetch_add(1) %
                             draw.keys.size()]];
  }

 private:
  /// The next card of `cards`, reshuffling at the start of every pass.
  size_t Deal(std::vector<size_t>* cards, size_t* position) {
    if (*position == 0) {
      for (size_t i = cards->size(); i > 1; --i) {
        std::swap((*cards)[i - 1], (*cards)[rng_.NextIndex(i)]);
      }
    }
    const size_t card = (*cards)[*position];
    *position = (*position + 1) % cards->size();
    return card;
  }

  const Workload& w_;
  SharedTraffic* shared_;
  Rng rng_;
  std::vector<size_t> deck_;
  size_t deck_position_ = 0;
  std::vector<std::vector<size_t>> orders_;
  std::vector<size_t> positions_;
  std::vector<std::vector<double>> zipf_cdf_;
};

// ---- Clients --------------------------------------------------------------

enum Phase : int { kWarmup = 0, kMeasure = 1, kTraced = 2, kStop = 3 };

/// How the main thread steers the clients: the phase their requests belong
/// to, and a pause. A query client counts itself in `busy` from before it
/// checks `paused` until it has handled the reply, and the stream
/// connection counts each slot from before it checks `paused` to open the
/// slot's streams until both have ended, so once the main thread has set
/// `paused` and seen `busy` reach 0, every request and stream is answered
/// and none is sent until `paused` clears.
struct Gate {
  std::atomic<int> phase{kWarmup};
  std::atomic<bool> paused{false};
  std::atomic<int> busy{0};
  /// Counts the resumes: every request belongs to the slice of load it was
  /// sent in, and is answered in it.
  std::atomic<int> slice{0};

  /// Stops the clients and waits until every request is answered.
  void Pause() {
    paused.store(true);
    while (busy.load() != 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  void Resume() {
    slice.fetch_add(1);
    paused.store(false);
  }
};

struct Sample {
  double latency_us;
  int slice;
  uint8_t kind;
  uint8_t phase;
};

/// What one connection saw. Merged after the run; no locks while running.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 5) errors.push_back(what);
  }
  void Merge(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const auto& e : other.errors) {
      if (errors.size() < 8) errors.push_back(e);
    }
  }
};

struct ClientResult {
  Tally tally;
  std::vector<Sample> samples;
  // Whole run.
  uint64_t estimates = 0;
  uint64_t ci_misses = 0;
  uint64_t degraded = 0;
  double exact_nodes = 0.0;
  uint64_t exact_results = 0;
  std::vector<Json> responses;  ///< first responses, for wire.encode_us
  // Traced window.
  SpanTable spans;
  uint64_t traced = 0;
  double traced_rtt_us = 0.0;
  double traced_server_us = 0.0;
  double samples_drawn = 0.0;   ///< approx + mcmc samples
  double sample_steps = 0.0;    ///< their chain steps
  double sample_eval_us = 0.0;  ///< their eval.<kind> span time
  double compiled_steps = 0.0;
  double compiled_us = 0.0;
  std::unique_ptr<ChromeTrace> chrome;
};

double Number(const Json* object, const char* field) {
  const Json* value = object != nullptr ? object->Find(field) : nullptr;
  return value != nullptr && value->is_number() ? value->AsDouble() : 0.0;
}

/// Summed duration of the spans named `a` or `b` in the tree at `node`.
double SpanTime(const Json& node, const std::string& a, const std::string& b) {
  double total = 0.0;
  const Json* name = node.Find("name");
  if (name != nullptr && name->is_string() &&
      (name->AsString() == a || name->AsString() == b)) {
    total += std::max(0.0, Number(&node, "dur_us"));
  }
  const Json* children = node.Find("children");
  if (children != nullptr && children->is_array()) {
    for (const Json& child : children->items()) total += SpanTime(child, a, b);
  }
  return total;
}

/// Bookkeeping of a correct response to `key`.
void Account(const Key& key, const Json& response, int phase, double start_us,
             double rtt_us, ClientResult* out) {
  const Json* result = response.Find("result");
  const Json* degraded = result != nullptr ? result->Find("degraded") : nullptr;
  if (degraded != nullptr && degraded->is_bool() && degraded->AsBool()) {
    ++out->degraded;
  }
  if (key.has_exact) {
    ++out->estimates;
    if (std::fabs(Number(result, "estimate") - key.exact) > key.epsilon) {
      ++out->ci_misses;
    }
  }
  if (key.kind == "exact") {
    out->exact_nodes += Number(result, "nodes");
    ++out->exact_results;
  }
  if (out->responses.size() < 256) out->responses.push_back(response);
  if (phase != kTraced) return;

  const Json* trace = response.Find("trace");
  const Json* root = trace != nullptr ? trace->Find("root") : nullptr;
  out->chrome->AddRequest(key.kind, start_us, rtt_us, root);
  if (root == nullptr) return;
  out->spans.Add(*root);
  ++out->traced;
  out->traced_rtt_us += rtt_us;
  out->traced_server_us += Number(root, "dur_us");
  const Json* cached = response.Find("cached");
  if (cached != nullptr && cached->is_bool() && cached->AsBool()) return;
  if (key.kind == "approx" || key.kind == "mcmc") {
    out->samples_drawn += Number(result, "samples");
    out->sample_steps += Number(result, "total_steps");
    out->sample_eval_us += SpanTime(*root, "eval." + key.kind, "");
  }
  const Json* backend = result != nullptr ? result->Find("backend") : nullptr;
  if (backend != nullptr && backend->is_string() &&
      backend->AsString() == "compiled") {
    const double us = SpanTime(*root, "trajectory.sample", "mcmc.worker");
    if (us > 0) {
      out->compiled_steps += Number(result, "total_steps");
      out->compiled_us += us;
    }
  }
}

void RunClient(int id, uint16_t port, const Workload& w,
               SharedTraffic* shared, Gate* gate, Clock::time_point epoch,
               ClientResult* out) {
  out->chrome = std::make_unique<ChromeTrace>(id, 2000);
  server::Client client(ClientTimeouts());
  if (Status s = client.Connect(port); !s.ok()) {
    ++out->tally.attempted;
    out->tally.Fail("connect: " + s.ToString());
    return;
  }
  Traffic traffic(w, shared, static_cast<uint64_t>(id) + 1);
  for (;;) {
    gate->busy.fetch_add(1);
    if (gate->paused.load()) {
      gate->busy.fetch_sub(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    struct Release {
      std::atomic<int>* busy;
      ~Release() { busy->fetch_sub(1); }
    } release{&gate->busy};
    // Read while counted busy: the main thread changes both only while
    // paused, so they hold for this whole request.
    const int ph = gate->phase.load();
    if (ph == kStop) break;
    const int slice = gate->slice.load();
    const Key& key = traffic.Pick();
    const Clock::time_point t0 = Clock::now();
    StatusOr<std::string> reply =
        client.RoundTrip(ph == kTraced ? key.traced_line : key.line);
    const double rtt_us = UsBetween(t0, Clock::now());
    ++out->tally.attempted;
    out->samples.push_back(
        {rtt_us, slice, KindIndex(key.kind), static_cast<uint8_t>(ph)});

    if (!reply.ok()) {
      out->tally.Fail(key.kind + ": transport: " + reply.status().ToString());
      if (!client.Connect(port).ok()) return;
      continue;
    }
    StatusOr<Json> response = Json::Parse(*reply);
    std::string why;
    if (!response.ok()) {
      out->tally.Fail(key.kind + ": unparsable response");
    } else if (!Judge(key, *response, &why)) {
      out->tally.Fail(key.kind + ": " + why + "; got " + reply->substr(0, 200));
    } else {
      Account(key, *response, ph, UsBetween(epoch, t0), rtt_us, out);
    }
  }
}

// ---- Streams --------------------------------------------------------------

struct StreamResult {
  Tally tally;
  std::vector<double> complete_ms;  ///< streams that ended in a window
  uint64_t acks = 0;
  uint64_t fused = 0;
  uint64_t completed = 0;
  double final_samples = 0.0;
};

/// Keeps two identical subscriptions open per slot, reopening a slot with
/// its next target once both of its streams reach their terminal line
/// (and `gate` is not paused).
void RunStreams(uint16_t port, const Workload& w, Gate* gate,
                StreamResult* out) {
  struct Slot {
    size_t round = 0;
    std::string subs[2];
    bool open[2] = {false, false};
    bool busy = false;  ///< counted in gate->busy
    Clock::time_point opened;
  };
  std::vector<Slot> slots(w.stream_slots.size());
  // Every way out releases the slots still counted, so Pause never waits
  // on a connection that has given up.
  struct Release {
    Gate* gate;
    std::vector<Slot>* slots;
    ~Release() {
      for (const Slot& slot : *slots) {
        if (slot.busy) gate->busy.fetch_sub(1);
      }
    }
  } release{gate, &slots};

  server::Client client(ClientTimeouts());
  if (Status s = client.Connect(port); !s.ok()) {
    ++out->tally.attempted;
    out->tally.Fail("stream connect: " + s.ToString());
    return;
  }
  auto open = [&](size_t s) {
    Slot& slot = slots[s];
    const std::vector<Json>& cycle = w.stream_slots[s];
    Json request = cycle[slot.round % cycle.size()];
    request.Set("seed", static_cast<int64_t>(
                            request.Find("seed")->AsInt() + slot.round));
    slot.opened = Clock::now();
    for (int c = 0; c < 2; ++c) {
      ++out->tally.attempted;
      StatusOr<Json> ack = client.Call(request);
      const Json* result = ack.ok() ? ack->Find("result") : nullptr;
      const Json* sub = result != nullptr ? result->Find("sub") : nullptr;
      if (!ack.ok() || !IsOk(*ack) || sub == nullptr || !sub->is_string()) {
        out->tally.Fail("subscribe: " +
                        (ack.ok() ? ack->Dump() : ack.status().ToString()));
        return false;
      }
      ++out->acks;
      const Json* fused = result->Find("fused");
      if (fused != nullptr && fused->is_bool() && fused->AsBool()) ++out->fused;
      slot.subs[c] = sub->AsString();
      slot.open[c] = true;
    }
    return true;
  };
  while (gate->phase.load() != kStop) {
    bool any_open = false;
    for (size_t s = 0; s < slots.size(); ++s) {
      Slot& slot = slots[s];
      if (!slot.busy) {
        gate->busy.fetch_add(1);
        slot.busy = true;
        if (gate->paused.load()) {
          gate->busy.fetch_sub(1);
          slot.busy = false;
          continue;
        }
        if (!open(s)) return;
      }
      any_open = true;
    }
    if (!any_open) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    StatusOr<Json> push = client.NextPush(100);
    if (!push.ok()) {
      if (push.status().code() == StatusCode::kDeadlineExceeded) continue;
      out->tally.Fail("stream: " + push.status().ToString());
      return;
    }
    const Json* event = push->Find("event");
    const Json* sub = push->Find("sub");
    if (event == nullptr || sub == nullptr || event->AsString() == "update") {
      continue;
    }
    if (event->AsString() == "error") {
      out->tally.Fail("stream error push: " + push->Dump().substr(0, 200));
    }
    for (Slot& slot : slots) {
      for (int c = 0; c < 2; ++c) {
        if (!slot.open[c] || slot.subs[c] != sub->AsString()) continue;
        slot.open[c] = false;
        ++out->completed;
        out->final_samples += Number(push->Find("result"), "samples");
        const int ph = gate->phase.load();
        if (ph == kMeasure || ph == kTraced) {
          out->complete_ms.push_back(UsBetween(slot.opened, Clock::now()) /
                                     1000.0);
        }
      }
      if (slot.busy && !slot.open[0] && !slot.open[1]) {
        ++slot.round;
        slot.busy = false;
        gate->busy.fetch_sub(1);
      }
    }
  }
}

// ---- Metric scrapes -------------------------------------------------------

struct Scrape {
  std::map<std::string, double> counters;  ///< summed over the fleet
  double cpu_ms = 0.0;

  /// Total of `name` over all its label sets.
  double Sum(const std::string& name) const {
    double total = 0.0;
    for (auto it = counters.lower_bound(name);
         it != counters.end() && it->first.rfind(name, 0) == 0; ++it) {
      const char next = it->first.size() > name.size() ? it->first[name.size()]
                                                       : '\0';
      if (next == '\0' || next == '{') total += it->second;
    }
    return total;
  }
};

/// The main thread's control connections: every pfqld, and the router.
class Scraper {
 public:
  explicit Scraper(const Fleet& fleet) : fleet_(fleet) {}

  StatusOr<Scrape> Take() {
    if (clients_.empty()) {
      for (uint16_t port : fleet_.worker_ports()) {
        clients_.push_back(std::make_unique<server::Client>(ClientTimeouts()));
        PFQL_RETURN_NOT_OK(clients_.back()->Connect(port));
        methods_.push_back("metrics");
      }
      if (fleet_.routed()) {
        clients_.push_back(std::make_unique<server::Client>(ClientTimeouts()));
        PFQL_RETURN_NOT_OK(clients_.back()->Connect(fleet_.port()));
        methods_.push_back("router_metrics");
      }
    }
    Scrape scrape;
    for (size_t i = 0; i < clients_.size(); ++i) {
      Json request = Json::Object();
      request.Set("method", methods_[i]);
      PFQL_ASSIGN_OR_RETURN(Json reply, clients_[i]->Call(request));
      const Json* result = reply.Find("result");
      const Json* metrics =
          result != nullptr ? result->Find("metrics") : nullptr;
      const Json* counters =
          metrics != nullptr ? metrics->Find("counters") : nullptr;
      if (counters == nullptr || !counters->is_object()) {
        return Status::Internal(methods_[i] + " returned no counters");
      }
      for (const auto& [name, value] : counters->members()) {
        scrape.counters[name] += value.AsDouble();
      }
    }
    for (pid_t pid : fleet_.pids()) scrape.cpu_ms += CpuMs(pid);
    return scrape;
  }

 private:
  const Fleet& fleet_;
  std::vector<std::unique_ptr<server::Client>> clients_;
  std::vector<std::string> methods_;
};

/// p50 of `count` ping round trips against `port`, in microseconds.
StatusOr<double> PingP50(uint16_t port, int count) {
  server::Client client(ClientTimeouts());
  PFQL_RETURN_NOT_OK(client.Connect(port));
  std::vector<double> us;
  for (int i = 0; i < count; ++i) {
    const Clock::time_point t0 = Clock::now();
    PFQL_ASSIGN_OR_RETURN(std::string reply,
                          client.RoundTrip("{\"method\":\"ping\"}"));
    us.push_back(UsBetween(t0, Clock::now()));
  }
  return Median(std::move(us));
}

// ---- In-process layer timings ---------------------------------------------

/// Mean microseconds of fn(item) over `items`, repeated to >= 20 ms.
template <typename T, typename F>
double MeanUs(const std::vector<T>& items, F&& fn) {
  if (items.empty()) return 0.0;
  size_t calls = 0;
  const Clock::time_point t0 = Clock::now();
  do {
    for (const T& item : items) fn(item);
    calls += items.size();
  } while (UsBetween(t0, Clock::now()) < 20000.0);
  return UsBetween(t0, Clock::now()) / static_cast<double>(calls);
}

double DecodeUs(const Workload& w) {
  std::vector<std::string> lines;
  for (size_t i = 0; i < w.keys.size() && lines.size() < 512; ++i) {
    lines.push_back(w.keys[i].line);
  }
  return MeanUs(lines, [](const std::string& line) {
    StatusOr<server::Request> request = server::ParseRequestLine(line);
    if (!request.ok()) std::abort();
  });
}

double EncodeUs(const std::vector<Json>& responses) {
  size_t bytes = 0;
  const double us = MeanUs(responses, [&](const Json& response) {
    bytes += response.Dump().size();
  });
  return bytes > 0 ? us : 0.0;
}

/// TranslateNonInflationary on the workload's noninflationary inputs.
double TranslateUs(const Workload& w) {
  struct Input {
    datalog::Program program;
    Instance edb;
  };
  std::vector<Input> inputs;
  for (const Key& key : w.keys) {
    if (inputs.size() >= 64) break;
    if (key.kind != "forever" && key.kind != "mcmc" &&
        key.kind != "trajectory" && key.kind != "partition") {
      continue;
    }
    const Json* text = key.request.Find("program_text");
    const Json* name = key.request.Find("program");
    const Json* data_text = key.request.Find("data_text");
    const Json* data = key.request.Find("data");
    auto program = datalog::ParseProgram(
        text != nullptr ? text->AsString() : w.programs.at(name->AsString()));
    auto edb = ParseInstanceText(data_text != nullptr
                                     ? data_text->AsString()
                                     : w.instances.at(data->AsString()));
    if (program.ok() && edb.ok()) {
      inputs.push_back({*std::move(program), *std::move(edb)});
    }
  }
  return MeanUs(inputs, [](const Input& in) {
    if (!datalog::TranslateNonInflationary(in.program, in.edb).ok()) {
      std::abort();
    }
  });
}

// ---- One workload ---------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::string workload;
  Tally tally;
  std::vector<Metric> metrics;
  std::vector<Metric> raw;  ///< time metrics as read, before scaling
  Json detail = Json::Object();
};

/// Spawn, register, warm: the cost of making a fresh fleet ready.
StatusOr<std::unique_ptr<Fleet>> SetUp(const Workload& w, Tally* tally,
                                       double* seconds) {
  const Clock::time_point t0 = Clock::now();
  PFQL_ASSIGN_OR_RETURN(std::unique_ptr<Fleet> fleet, Fleet::Start(w));
  server::Client client(ClientTimeouts());
  PFQL_RETURN_NOT_OK(client.Connect(fleet->port()));
  auto call = [&](const Json& request) {
    ++tally->attempted;
    StatusOr<Json> reply = client.Call(request);
    if (!reply.ok() || !IsOk(*reply)) {
      tally->Fail("setup " + request.Find("method")->AsString() + ": " +
                  (reply.ok() ? reply->Dump().substr(0, 200)
                              : reply.status().ToString()));
    }
  };
  for (const auto& [name, text] : w.programs) {
    call(Json::Object()
             .Set("method", "register_program")
             .Set("name", name)
             .Set("program_text", text));
  }
  for (const auto& [name, text] : w.instances) {
    call(Json::Object()
             .Set("method", "register_instance")
             .Set("name", name)
             .Set("data_text", text));
  }
  for (size_t k : w.warm) {
    const Key& key = w.keys[k];
    ++tally->attempted;
    StatusOr<std::string> reply = client.RoundTrip(key.line);
    StatusOr<Json> response =
        reply.ok() ? Json::Parse(*reply) : StatusOr<Json>(reply.status());
    std::string why;
    if (!response.ok()) {
      tally->Fail("warm " + key.kind + ": " + response.status().ToString());
    } else if (!Judge(key, *response, &why)) {
      tally->Fail("warm " + key.kind + ": " + why);
    }
  }
  *seconds = UsBetween(t0, Clock::now()) / 1e6;
  return fleet;
}

std::vector<double> Latencies(const std::vector<const ClientResult*>& clients,
                              int phase, int kind = -1,
                              bool queries_only = false) {
  std::vector<double> out;
  for (const ClientResult* c : clients) {
    for (const Sample& s : c->samples) {
      if (s.phase != phase) continue;
      if (kind >= 0 && s.kind != kind) continue;
      if (queries_only && s.kind == KindIndex("ping")) continue;
      out.push_back(s.latency_us);
    }
  }
  return out;
}

Json SummaryJson(const LatencySummary& s) {
  return Json::Object()
      .Set("n", s.n)
      .Set("p50", s.p50)
      .Set("p90", s.p90)
      .Set("p95", s.p95)
      .Set("p99", s.p99)
      .Set("beyond_p95", s.beyond_p95)
      .Set("beyond_p99", s.beyond_p99);
}

/// Load between two runs of the speed probe, and the probe's length.
constexpr double kSliceSeconds = 1.0;
constexpr double kProbeSeconds = 0.05;

StatusOr<Report> RunWorkload(const Options& options,
                             const std::string& name) {
  Report report;
  report.workload = name;
  PFQL_ASSIGN_OR_RETURN(Workload w, MakeWorkload(name, options.seed));
  const Clock::time_point golden_start = Clock::now();
  PFQL_RETURN_NOT_OK(ComputeGoldens(&w, 3));
  const double golden_s = UsBetween(golden_start, Clock::now()) / 1e6;

  // Set up fresh fleets and report the median; the last one serves the
  // run. Cheap set-ups are repeated more (up to 100, while they take under
  // 1.5 s together), so their median stays steady.
  std::vector<double> setup_s;
  double setup_total = 0.0;
  std::unique_ptr<Fleet> fleet;
  while (options.setups > 0
             ? static_cast<int>(setup_s.size()) < options.setups
             : setup_s.size() < 3 ||
                   (setup_total < 1.5 && setup_s.size() < 100)) {
    fleet.reset();
    double seconds = 0.0;
    PFQL_ASSIGN_OR_RETURN(fleet, SetUp(w, &report.tally, &seconds));
    setup_s.push_back(seconds);
    setup_total += seconds;
  }

  const double window1 = options.trace ? options.seconds / 2 : options.seconds;
  const double window2 = options.trace ? options.seconds / 2 : 0.0;
  Gate gate;
  const Clock::time_point epoch = Clock::now();
  SharedTraffic shared(w.draws.size());
  std::vector<ClientResult> clients(static_cast<size_t>(w.query_clients));
  StreamResult streams;
  std::vector<std::thread> threads;
  for (int c = 0; c < w.query_clients; ++c) {
    threads.emplace_back(RunClient, c, fleet->port(), std::cref(w), &shared,
                         &gate, epoch, &clients[static_cast<size_t>(c)]);
  }
  if (!w.stream_slots.empty()) {
    threads.emplace_back(RunStreams, fleet->port(), std::cref(w), &gate,
                         &streams);
  }

  Scraper scraper(*fleet);
  SleepSeconds(options.warmup);
  StatusOr<Scrape> a0 = scraper.Take();
  // The measured window: slices of load, each followed by the speed probe
  // on every CPU while the clients wait with every request and stream
  // answered. Its length is the slices' (the pauses are not in it).
  gate.Pause();
  gate.phase.store(kMeasure);
  double window1_s = 0.0;
  const int first_slice = gate.slice.load() + 1;
  // Of slice first_slice + i: its length, the share of CPU time stolen in
  // it, and the probe's slowdown right after it.
  std::vector<double> slice_s, steals, slowdowns;
  while (window1_s < window1 - 1e-6) {
    const CpuTicks ticks = ReadCpuTicks();
    const Clock::time_point start = Clock::now();
    gate.Resume();
    SleepSeconds(std::min(kSliceSeconds, window1 - window1_s));
    slice_s.push_back(UsBetween(start, Clock::now()) / 1e6);
    window1_s += slice_s.back();
    gate.Pause();
    steals.push_back(StealShare(ticks, ReadCpuTicks()));
    std::vector<double> chunk_us;
    ProbeCpus(kProbeSeconds, &chunk_us);
    slowdowns.push_back(Slowdown(std::move(chunk_us)));
  }
  StatusOr<Scrape> a1 = scraper.Take();
  gate.phase.store(options.trace ? kTraced : kStop);
  gate.Resume();
  StatusOr<Scrape> b1 = a1;
  if (options.trace) {
    SleepSeconds(window2);
    b1 = scraper.Take();
    gate.phase.store(kStop);
  }
  for (auto& t : threads) t.join();
  PFQL_RETURN_NOT_OK(a0.status());
  PFQL_RETURN_NOT_OK(a1.status());
  PFQL_RETURN_NOT_OK(b1.status());

  double transport_us = 0.0;
  double routed_us = 0.0;
  if (options.trace) {
    PFQL_ASSIGN_OR_RETURN(transport_us,
                          PingP50(fleet->worker_ports().front(), 500));
    routed_us = transport_us;
    if (fleet->routed()) {
      PFQL_ASSIGN_OR_RETURN(routed_us, PingP50(fleet->port(), 500));
    }
  }
  double peak_rss_kb = 0.0;
  for (pid_t pid : fleet->pids()) {
    peak_rss_kb = std::max(peak_rss_kb, PeakRssKb(pid));
  }
  fleet.reset();

  std::vector<const ClientResult*> views;
  for (const ClientResult& c : clients) {
    views.push_back(&c);
    report.tally.Merge(c.tally);
  }
  report.tally.Merge(streams.tally);

  const LatencySummary e2e = Summarize(Latencies(views, kMeasure));
  // The window at the reference speed (speed_probe.h), over the slices
  // whose steal share stayed within kMaxStealShare (over all of them when
  // that leaves fewer than half): each request's latency over the
  // slowdown the probe read right after its slice, and each request
  // counted as that slowdown's worth of reference-speed work.
  std::vector<bool> kept;
  double kept_s = 0.0;
  for (size_t i = 0; i < steals.size(); ++i) {
    kept.push_back(steals[i] <= kMaxStealShare);
    if (kept.back()) kept_s += slice_s[i];
  }
  if (2 * kept_s < window1_s) {
    kept.assign(kept.size(), true);
    kept_s = window1_s;
  }
  std::vector<double> scaled_us;
  double scaled_requests = 0.0;
  for (const ClientResult* c : views) {
    for (const Sample& s : c->samples) {
      if (s.phase != kMeasure) continue;
      const size_t slice = static_cast<size_t>(s.slice - first_slice);
      if (!kept.at(slice)) continue;
      scaled_us.push_back(s.latency_us / slowdowns[slice]);
      scaled_requests += slowdowns[slice];
    }
  }
  const LatencySummary scaled = Summarize(std::move(scaled_us));
  auto add = [&](const std::string& metric, double value,
                 const std::string& unit) {
    report.metrics.push_back({metric, value, unit});
  };
  report.detail.Set("seed", static_cast<int64_t>(options.seed));
  report.detail.Set("golden_s", golden_s);
  Json setups = Json::Array();
  for (double s : setup_s) setups.Append(s);
  report.detail.Set("setup_s", std::move(setups));
  report.detail.Set("window_s", window1_s);
  report.detail.Set("latency_us", SummaryJson(e2e));
  report.detail.Set("measured_s", kept_s);
  Json slowdown_json = Json::Array();
  Json steal_json = Json::Array();
  for (size_t i = 0; i < slowdowns.size(); ++i) {
    slowdown_json.Append(slowdowns[i]);
    steal_json.Append(steals[i]);
  }
  report.detail.Set("slowdowns", std::move(slowdown_json));
  report.detail.Set("steals", std::move(steal_json));
  const double slowdown = Median(slowdowns);
  report.detail.Set("slowdown", slowdown);

  // The readings as taken go to `raw`. Set-up is not scaled: it is mostly
  // process start and the kernel's work, which the probe does not track.
  report.raw = {{"throughput_rps", static_cast<double>(e2e.n) / window1_s,
                 "req/s"},
                {"latency_p50_ms", e2e.p50 / 1000.0, "ms"},
                {"latency_p95_ms", e2e.p95 / 1000.0, "ms"}};
  if (!options.trace) {
    add("setup_s", Median(setup_s), "s");
    add("throughput_rps", scaled_requests / kept_s, "req/s");
    add("latency_p50_ms", scaled.p50 / 1000.0, "ms");
    add("peak_rss_mb", peak_rss_kb / 1024.0, "MiB");
    return report;
  }

  // ---- Per-layer metrics (traced run) ----
  SpanTable spans;
  ClientResult total;
  for (const ClientResult& c : clients) {
    spans.Merge(c.spans);
    total.estimates += c.estimates;
    total.ci_misses += c.ci_misses;
    total.degraded += c.degraded;
    total.exact_nodes += c.exact_nodes;
    total.exact_results += c.exact_results;
    total.traced += c.traced;
    total.traced_rtt_us += c.traced_rtt_us;
    total.traced_server_us += c.traced_server_us;
    total.samples_drawn += c.samples_drawn;
    total.sample_steps += c.sample_steps;
    total.sample_eval_us += c.sample_eval_us;
    total.compiled_steps += c.compiled_steps;
    total.compiled_us += c.compiled_us;
    total.responses.insert(total.responses.end(), c.responses.begin(),
                           c.responses.end());
  }
  auto delta = [&](const std::string& counter) {
    return a1->Sum(counter) - a0->Sum(counter);
  };
  auto mean_us = [&](const std::string& span) {
    return spans.Get(span).MeanUs();
  };
  auto self_us = [&](const std::string& span) {
    return spans.Get(span).MeanSelfUs();
  };
  const LatencySummary admission =
      Summarize(spans.Get("admission.wait").durations_us);
  const double a_requests = static_cast<double>(e2e.n);

  // The tail moves too much from run to run on a shared machine to bound
  // (its interquartile range reached 0.3-0.4 of the median over ten runs),
  // so it is a per-layer diagnostic here, scaled like the p50.
  add("latency_p95_ms", scaled.p95 / 1000.0, "ms");
  add("wire.decode_us", DecodeUs(w), "us");
  add("wire.encode_us", EncodeUs(total.responses), "us");
  add("transport.us", transport_us, "us");
  add("router.hop_us", routed_us - transport_us, "us");
  add("service.admission_wait_p50_us", admission.p50, "us");
  add("service.admission_wait_p95_us", admission.p95, "us");
  add("service.resolve_program_us", mean_us("resolve.program"), "us");
  add("service.resolve_instance_us", mean_us("resolve.instance"), "us");
  add("service.rejected", delta("pfql_admission_rejected_total"), "count");
  // hits + misses, not lookups: the counters are scraped under load, and
  // the two halves of one scrape must stay consistent.
  add("cache.hit_ratio",
      Ratio(delta("pfql_cache_hits_total"),
            delta("pfql_cache_hits_total") + delta("pfql_cache_misses_total")),
      "ratio");
  add("cache.lookup_us", mean_us("cache.lookup"), "us");
  add("analysis.plan_us", mean_us("plan.analyze"), "us");
  add("analysis.rejected", delta("pfql_plan_rejected_total"), "count");
  add("analysis.skipped_compiles", delta("pfql_plan_skipped_compiles_total"),
      "count");
  add("datalog.translate_us", TranslateUs(w), "us");
  add("datalog.exact_nodes",
      Ratio(total.exact_nodes, static_cast<double>(total.exact_results)),
      "nodes");
  add("state_space.build_us", mean_us("state_space.build"), "us");
  add("state_space.states", delta("pfql_state_space_states_total"), "count");
  add("state_space.states_per_s",
      Ratio(b1->Sum("pfql_state_space_states_total") -
                a1->Sum("pfql_state_space_states_total"),
            spans.Get("state_space.build").total_us / 1e6),
      "1/s");
  add("interner.dedup_ratio",
      Ratio(delta("pfql_interner_dedup_hits_total"),
            delta("pfql_interner_dedup_hits_total") +
                delta("pfql_interner_inserts_total")),
      "ratio");
  add("markov.solve_us", self_us("eval.forever"), "us");
  add("compile.cold_us", mean_us("compile"), "us");
  add("compile.memo_hit_ratio",
      Ratio(delta("pfql_compile_total{outcome=\"fingerprint_hit\"}") +
                delta("pfql_compile_total{outcome=\"chain_hit\"}"),
            delta("pfql_compile_total")),
      "ratio");
  add("compiled.steps_per_s",
      Ratio(total.compiled_steps, total.compiled_us / 1e6), "1/s");
  for (const char* kind : {"approx", "mcmc", "trajectory", "exact", "forever",
                           "partition", "run"}) {
    add(std::string("eval.") + kind + "_us",
        self_us(std::string("eval.") + kind), "us");
  }
  add("eval.samples_per_s",
      Ratio(total.samples_drawn, total.sample_eval_us / 1e6), "1/s");
  add("eval.steps_per_sample", Ratio(total.sample_steps, total.samples_drawn),
      "steps");
  add("eval.degraded", static_cast<double>(total.degraded), "count");
  add("eval.ci_miss_rate",
      Ratio(static_cast<double>(total.ci_misses),
            static_cast<double>(total.estimates)),
      "ratio");
  add("sched.quanta", delta("pfql_sched_quanta_total"), "count");
  add("sched.updates", delta("pfql_sched_updates_total"), "count");
  add("sched.updates_dropped", delta("pfql_sched_updates_dropped_total"),
      "count");
  add("sched.fused_share",
      Ratio(static_cast<double>(streams.fused),
            static_cast<double>(streams.acks)),
      "ratio");
  add("sched.samples_per_stream",
      Ratio(streams.final_samples, static_cast<double>(streams.completed)),
      "samples");
  const LatencySummary stream_ms = Summarize(streams.complete_ms);
  add("sched.stream_complete_p50_ms", stream_ms.p50, "ms");
  add("sched.stream_complete_p90_ms", stream_ms.p90, "ms");
  add("proc.cpu_ms_per_request", Ratio(a1->cpu_ms - a0->cpu_ms, a_requests),
      "ms");
  for (size_t k = 0; k < Kinds().size(); ++k) {
    add("kind." + Kinds()[k] + ".p50_ms",
        Median(Latencies(views, kMeasure, static_cast<int>(k))) / 1000.0,
        "ms");
  }
  add("trace.unexplained_pct",
      100.0 * Ratio(total.traced_rtt_us - total.traced_server_us -
                        static_cast<double>(total.traced) * routed_us,
                    total.traced_rtt_us),
      "%");
  const double untraced_p50 =
      Median(Latencies(views, kMeasure, -1, /*queries_only=*/true));
  const double traced_p50 =
      Median(Latencies(views, kTraced, -1, /*queries_only=*/true));
  add("trace.overhead_pct",
      100.0 * Ratio(traced_p50 - untraced_p50, untraced_p50), "%");
  add("machine.slowdown", slowdown, "ratio");
  add("machine.steal_pct",
      100.0 * std::accumulate(steals.begin(), steals.end(), 0.0) /
          static_cast<double>(std::max<size_t>(1, steals.size())),
      "%");

  Json span_detail = Json::Object();
  for (const auto& [span, stats] : spans.all()) {
    span_detail.Set(span, Json::Object()
                              .Set("count", stats.count)
                              .Set("mean_us", stats.MeanUs())
                              .Set("mean_self_us", stats.MeanSelfUs()));
  }
  report.detail.Set("spans", std::move(span_detail));
  report.detail.Set("streams_completed", streams.complete_ms.size());

  std::error_code ec;
  std::filesystem::create_directories(options.trace_dir, ec);
  std::vector<const ChromeTrace*> chrome;
  for (const ClientResult& c : clients) chrome.push_back(c.chrome.get());
  const std::string path = options.trace_dir + "/" + name + "-seed" +
                           std::to_string(options.seed) + ".json";
  if (Status s = WriteChromeTrace(path, chrome); !s.ok()) {
    std::fprintf(stderr, "bench_e2e: %s\n", s.ToString().c_str());
  } else {
    report.detail.Set("chrome_trace", path);
  }
  return report;
}

Json MetricsJson(const std::vector<Metric>& metrics,
                 const std::string& prefix) {
  Json out = Json::Object();
  for (const Metric& m : metrics) {
    out.Set(prefix + m.name, Json::Object().Set("value", m.value).Set("unit",
                                                                     m.unit));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseOptions(argc, argv, &options)) return Usage();
  // Orphaned pfqld workers of a pfqlr that died are re-parented here, so
  // Fleet can reap them.
  ::prctl(PR_SET_CHILD_SUBREAPER, 1);

  std::vector<Report> reports;
  for (const std::string& name : options.workloads) {
    StatusOr<Report> report = RunWorkload(options, name);
    if (!report.ok()) {
      std::fprintf(stderr, "bench_e2e: %s: %s\n", name.c_str(),
                   report.status().ToString().c_str());
      return 1;
    }
    for (const Metric& m : report->metrics) {
      std::printf("%-12s %-32s %16.6f %s\n", name.c_str(), m.name.c_str(),
                  m.value, m.unit.c_str());
    }
    for (const Metric& m : report->raw) {
      std::printf("%-12s %-32s %16.6f %s\n", name.c_str(),
                  ("raw." + m.name).c_str(), m.value, m.unit.c_str());
    }
    for (const std::string& error : report->tally.errors) {
      std::fprintf(stderr, "bench_e2e: %s: FAILED %s\n", name.c_str(),
                   error.c_str());
    }
    reports.push_back(*std::move(report));
  }

  const bool single = reports.size() == 1;
  Tally tally;
  Json metrics = Json::Object();
  Json detail = Json::Object();
  for (const Report& r : reports) {
    tally.Merge(r.tally);
    const Json named = MetricsJson(r.metrics, single ? "" : r.workload + ".");
    for (const auto& [metric, value] : named.members()) {
      metrics.Set(metric, value);
    }
    detail.Set(r.workload,
               Json::Object()
                   .Set("metrics", MetricsJson(r.metrics, ""))
                   .Set("raw", MetricsJson(r.raw, ""))
                   .Set("attempted", r.tally.attempted)
                   .Set("failed", r.tally.failed)
                   .Set("detail", r.detail));
  }
  if (!options.out.empty()) {
    std::ofstream out(options.out);
    out << detail.DumpPretty() << "\n";
  }
  Json result = Json::Object();
  result.Set("correct", tally.failed == 0);
  result.Set("attempted", tally.attempted);
  result.Set("failed", tally.failed);
  result.Set("metrics", std::move(metrics));
  std::printf("%s\n", result.Dump().c_str());
  return tally.failed == 0 ? 0 : 3;
}
