#include "util/fault_injection.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "util/metrics.h"
#include "util/string_util.h"

namespace pfql {
namespace fault {

namespace {

std::string PointLabel(std::string_view point) {
  std::string label = "point=\"";
  label.append(point);
  label += '"';
  return label;
}

}  // namespace

const std::vector<std::string>& KnownPoints() {
  static const std::vector<std::string> kPoints = {
      points::kApproxSample,     points::kMcmcSample,
      points::kTrajectoryRun,    points::kStateSpaceExpand,
      points::kCacheLookup,      points::kCacheEvict,
      points::kPoolSubmit,       points::kPoolRun,
      points::kTcpRead,          points::kTcpWrite,
      points::kRouterProbe,      points::kRouterProxy,
  };
  return kPoints;
}

FaultRegistry& FaultRegistry::Instance() {
  static FaultRegistry* registry = [] {
    auto* r = new FaultRegistry();
    if (const char* env = std::getenv("PFQL_FAULTS");
        env != nullptr && env[0] != '\0') {
      Status status = r->ArmFromSpec(env);
      if (!status.ok()) {
        std::fprintf(stderr, "warning: ignoring PFQL_FAULTS: %s\n",
                     status.ToString().c_str());
      }
    }
    return r;
  }();
  return *registry;
}

void FaultRegistry::Arm(std::string_view point, FaultSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = points_.try_emplace(std::string(point));
  if (!it->second.armed) {
    armed_count_.fetch_add(1, std::memory_order_relaxed);
  }
  it->second.spec = spec;
  it->second.armed = true;
  it->second.hits = 0;  // re-arming restarts the nth-hit count
}

void FaultRegistry::Disarm(std::string_view point) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(point);
  if (it != points_.end() && it->second.armed) {
    it->second.armed = false;
    armed_count_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void FaultRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  points_.clear();
  armed_count_.store(0, std::memory_order_relaxed);
}

void FaultRegistry::SetSeed(uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  rng_ = Rng(seed);
}

Status FaultRegistry::ArmFromSpec(std::string_view spec) {
  // Entries are separated by ',' or ';'. Each is point=trigger[:delay_ms]
  // with trigger p<prob> or n<hit>; `seed=<n>` seeds the trigger RNG. Each
  // number is read whole: a sign or a value that would wrap is refused.
  // Nothing is armed or seeded unless every entry parses.
  std::vector<std::pair<std::string, FaultSpec>> arms;
  std::optional<uint64_t> seed;
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t end = spec.find_first_of(",;", pos);
    if (end == std::string_view::npos) end = spec.size();
    std::string_view entry = spec.substr(pos, end - pos);
    pos = end + 1;
    // Trim surrounding whitespace.
    while (!entry.empty() && entry.front() == ' ') entry.remove_prefix(1);
    while (!entry.empty() && entry.back() == ' ') entry.remove_suffix(1);
    if (entry.empty()) continue;

    const size_t eq = entry.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq + 1 >= entry.size()) {
      return Status::InvalidArgument("fault spec entry '" +
                                     std::string(entry) +
                                     "' is not point=trigger");
    }
    const std::string point(entry.substr(0, eq));
    std::string_view trigger = entry.substr(eq + 1);

    if (point == "seed") {
      seed = ParseDecimal(trigger, 0, kMaxFaultSeed);
      if (!seed) {
        return Status::InvalidArgument(
            "fault seed '" + std::string(trigger) +
            "' must be a number from 0 to " + std::to_string(kMaxFaultSeed));
      }
      continue;
    }

    uint32_t delay_ms = 0;
    const size_t colon = trigger.find(':');
    if (colon != std::string_view::npos) {
      const std::string_view delay = trigger.substr(colon + 1);
      const std::optional<uint64_t> d =
          ParseDecimal(delay, 0, kMaxFaultDelayMs);
      if (!d) {
        return Status::InvalidArgument(
            "fault delay '" + std::string(delay) +
            "' must be a number of milliseconds from 0 to " +
            std::to_string(kMaxFaultDelayMs));
      }
      delay_ms = static_cast<uint32_t>(*d);
      trigger = trigger.substr(0, colon);
    }
    if (trigger.empty()) {
      return Status::InvalidArgument("empty trigger for fault point '" +
                                     point + "'");
    }

    const char mode = trigger.front();
    const std::string value(trigger.substr(1));
    if (mode == 'p') {
      char* endp = nullptr;
      const double p = std::strtod(value.c_str(), &endp);
      if (endp == nullptr || *endp != '\0' || value.empty() ||
          !(p >= 0.0 && p <= 1.0)) {  // NaN too
        return Status::InvalidArgument("fault probability '" + value +
                                       "' must be in [0, 1]");
      }
      arms.emplace_back(point, FaultSpec::Probability(p, delay_ms));
    } else if (mode == 'n') {
      const std::optional<uint64_t> n = ParseDecimal(value, 1, kMaxFaultHit);
      if (!n) {
        return Status::InvalidArgument(
            "fault hit index '" + value + "' must be a number from 1 to " +
            std::to_string(kMaxFaultHit));
      }
      arms.emplace_back(point, FaultSpec::NthHit(*n, delay_ms));
    } else {
      return Status::InvalidArgument(
          "fault trigger '" + std::string(trigger) +
          "' must start with p (probability) or n (nth hit)");
    }
  }
  if (seed) SetSeed(*seed);
  for (const auto& [point, fault] : arms) Arm(point, fault);
  return Status::OK();
}

bool FaultRegistry::ShouldFail(std::string_view point) {
  uint32_t delay_ms = 0;
  bool fired = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = points_.find(point);
    if (it == points_.end() || !it->second.armed) return false;
    PointState& state = it->second;
    ++state.hits;
    if (state.spec.nth > 0) {
      fired = state.hits == state.spec.nth;
    } else {
      fired = state.spec.probability > 0.0 &&
              rng_.NextDouble() < state.spec.probability;
    }
    if (fired) {
      ++state.fired;
      delay_ms = state.spec.delay_ms;
    }
  }
  // Armed-point hits are rare enough that the label formatting and registry
  // lookup here are noise; the disarmed fast path never reaches this.
  const std::string label = PointLabel(point);
  auto& registry = metrics::MetricRegistry::Instance();
  registry.GetCounter("pfql_fault_hits_total", label)->Increment();
  if (fired) {
    registry.GetCounter("pfql_fault_fired_total", label)->Increment();
  }
  if (fired && delay_ms > 0) {
    // Injected latency, not an error: sleep outside the lock so concurrent
    // hits on other points are not serialized behind it.
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    return false;
  }
  return fired;
}

uint64_t FaultRegistry::HitCount(std::string_view point) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.hits;
}

uint64_t FaultRegistry::FiredCount(std::string_view point) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.fired;
}

std::vector<std::string> FaultRegistry::ArmedPoints() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [name, state] : points_) {
    if (state.armed) out.push_back(name);
  }
  return out;
}

Json FaultRegistry::SnapshotJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  Json out = Json::Object();
  for (const auto& [name, state] : points_) {
    Json item = Json::Object();
    item.Set("armed", state.armed);
    item.Set("hits", state.hits);
    item.Set("fired", state.fired);
    if (state.spec.delay_ms > 0) {
      item.Set("delay_ms", static_cast<int64_t>(state.spec.delay_ms));
    }
    out.Set(name, std::move(item));
  }
  return out;
}

Status InjectedError(std::string_view point) {
  return Status::Unavailable("injected fault at '" + std::string(point) +
                             "'");
}

}  // namespace fault
}  // namespace pfql
