// Deterministic fault injection for robustness testing. Code that can fail
// in production (samplers, the state-space BFS, the result cache, the
// worker pool, the TCP read/write paths) declares *named injection points*;
// tests, the chaos CI job, or an operator arm a subset of them with a
// trigger — fire with probability p, or fire exactly on the nth hit — and
// the instrumented code provokes the failure on demand. Points are compiled
// in unconditionally: when nothing is armed the per-hit cost is one relaxed
// atomic load, so production binaries pay nothing measurable.
//
// Activation:
//   * programmatic: FaultRegistry::Instance().Arm("server.tcp.write", spec)
//     (tests use the ScopedFault RAII wrapper);
//   * spec string:  ArmFromSpec("server.tcp.write=n2,util.thread_pool.run=p0.5:20")
//     — each entry is point=trigger[:delay_ms] with trigger p<prob> or
//     n<hit>, plus an optional seed=<n> entry for the probability RNG;
//   * environment:  PFQL_FAULTS holds the same spec string and is loaded
//     once, lazily (the pfqld daemon also exposes it as --faults).
//
// A fault with delay_ms > 0 *delays* instead of failing (injected latency,
// e.g. slow worker-pool tasks); InjectFault() performs the sleep and
// returns false so call sites need no special casing. Probability triggers
// draw from a seeded xoshiro stream, so a fixed seed reproduces the same
// failure schedule run after run.
#ifndef PFQL_UTIL_FAULT_INJECTION_H_
#define PFQL_UTIL_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"
#include "util/random.h"
#include "util/status.h"

namespace pfql {
namespace fault {

/// Canonical injection-point names. Call sites reference these constants so
/// the full catalog is greppable in one place (and the chaos test can
/// assert every one of them fired).
namespace points {
inline constexpr char kApproxSample[] = "eval.approx.sample";
inline constexpr char kMcmcSample[] = "eval.mcmc.sample";
inline constexpr char kTrajectoryRun[] = "eval.trajectory.run";
inline constexpr char kStateSpaceExpand[] = "markov.state_space.expand";
inline constexpr char kCacheLookup[] = "server.cache.lookup";
inline constexpr char kCacheEvict[] = "server.cache.evict";
inline constexpr char kPoolSubmit[] = "util.thread_pool.submit";
inline constexpr char kPoolRun[] = "util.thread_pool.run";
inline constexpr char kTcpRead[] = "server.tcp.read";
inline constexpr char kTcpWrite[] = "server.tcp.write";
/// Router (pfqlr) paths: a firing probe fault makes a healthy worker look
/// wedged (exercising drain + planned restart), a firing proxy fault drops
/// a forwarded request so the client sees a retryable Unavailable.
inline constexpr char kRouterProbe[] = "router.probe";
inline constexpr char kRouterProxy[] = "router.proxy";
}  // namespace points

/// All canonical point names (for the chaos coverage assertion).
const std::vector<std::string>& KnownPoints();

/// Trigger for one armed point. Exactly one of `probability` / `nth` is
/// the trigger; `delay_ms` turns a firing into injected latency instead of
/// a failure.
struct FaultSpec {
  /// Fire each hit with this probability (ignored when nth > 0).
  double probability = 0.0;
  /// Fire exactly on the nth hit since arming (1-based); 0 = probabilistic.
  uint64_t nth = 0;
  /// When > 0, a firing sleeps this long instead of failing.
  uint32_t delay_ms = 0;

  static FaultSpec Probability(double p, uint32_t delay_ms = 0) {
    FaultSpec s;
    s.probability = p;
    s.delay_ms = delay_ms;
    return s;
  }
  static FaultSpec NthHit(uint64_t n, uint32_t delay_ms = 0) {
    FaultSpec s;
    s.nth = n;
    s.delay_ms = delay_ms;
    return s;
  }
};

/// Bounds of a spec string's numbers (ArmFromSpec refuses any other): a
/// hit index counts from 1, and a delay of at most an hour fits delay_ms.
inline constexpr uint64_t kMaxFaultSeed = UINT64_MAX;
inline constexpr uint64_t kMaxFaultHit = UINT64_MAX;
inline constexpr uint32_t kMaxFaultDelayMs = 3'600'000;

/// Process-global registry of armed points and hit/fired counters.
/// Thread-safe; the disarmed fast path is a single relaxed atomic load.
class FaultRegistry {
 public:
  /// The process registry. First access loads the PFQL_FAULTS environment
  /// spec (if set); a malformed env spec is ignored (reported on stderr)
  /// rather than crashing the host process.
  static FaultRegistry& Instance();

  /// Arms (or re-arms, resetting its hit counter) one point.
  void Arm(std::string_view point, FaultSpec spec);
  void Disarm(std::string_view point);
  /// Disarms everything and zeroes all counters (test isolation).
  void Reset();

  /// Seeds the probability-trigger RNG (deterministic failure schedules).
  void SetSeed(uint64_t seed);

  /// Parses and arms a spec string: comma- or semicolon-separated entries
  /// `point=p<prob>[:delay_ms]` | `point=n<hit>[:delay_ms]` | `seed=<n>`.
  Status ArmFromSpec(std::string_view spec);

  /// Counts a hit at `point`; true iff an armed *failure* fault fires.
  /// A firing delay fault sleeps here and returns false.
  bool ShouldFail(std::string_view point);

  uint64_t HitCount(std::string_view point) const;
  uint64_t FiredCount(std::string_view point) const;
  std::vector<std::string> ArmedPoints() const;
  bool AnyArmed() const {
    return armed_count_.load(std::memory_order_relaxed) > 0;
  }

  /// {"point": {"armed":bool,"hits":N,"fired":N}, ...} for stats/health.
  Json SnapshotJson() const;

 private:
  FaultRegistry() = default;

  struct PointState {
    FaultSpec spec;
    bool armed = false;
    uint64_t hits = 0;   // hits while armed
    uint64_t fired = 0;
  };

  mutable std::mutex mu_;
  Rng rng_{0x0fa171e5eedULL};
  std::map<std::string, PointState, std::less<>> points_;
  std::atomic<size_t> armed_count_{0};
};

/// The per-call-site hook: counts a hit and reports whether an armed
/// failure fault fires (delay faults sleep inside and return false).
/// Free when nothing is armed anywhere.
inline bool InjectFault(std::string_view point) {
  FaultRegistry& registry = FaultRegistry::Instance();
  if (!registry.AnyArmed()) return false;
  return registry.ShouldFail(point);
}

/// The structured error a firing failure fault turns into: Unavailable,
/// i.e. transient/retryable, with the point name in the message.
Status InjectedError(std::string_view point);

/// RAII arming for tests: arms on construction, disarms on destruction.
class ScopedFault {
 public:
  ScopedFault(std::string_view point, FaultSpec spec) : point_(point) {
    FaultRegistry::Instance().Arm(point_, spec);
  }
  ~ScopedFault() { FaultRegistry::Instance().Disarm(point_); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

 private:
  std::string point_;
};

}  // namespace fault
}  // namespace pfql

#endif  // PFQL_UTIL_FAULT_INJECTION_H_
