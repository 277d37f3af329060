// Sample-scheduler benchmark: measures what the PR8 streaming subsystem
// buys and gates the two claims CI's perf-smoke step depends on.
//   (a) fusion economics: N identical subscriptions sharing one fusion key
//       must cost one subscription's samples (<= 1.2x the single-run
//       count), driven end to end through the real persistent-chain MCMC
//       sampler on a fast-mixing kernel;
//   (b) adaptive vs round-robin: on a mixed workload of easy and hard
//       subscriptions, widest-CI-first must spend fewer total samples than
//       the round-robin baseline to bring every stream's CI under a common
//       target — round-robin keeps feeding streams that are already tight.
// Emits BENCH_pr8.json next to the human-readable table and exits
// non-zero if either gate fails.
//
//   bench_sched [fused_subscribers] [target_ci]
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "eval/resumable.h"
#include "gadgets/graphs.h"
#include "sched/scheduler.h"
#include "util/json.h"

using namespace pfql;

namespace {

// ---- (a) fusion: real MCMC sampler, one task, N subscribers ------------

sched::SubscriptionSpec McmcSpec(double epsilon) {
  sched::SubscriptionSpec spec;
  spec.kind = "mcmc";
  spec.is_mcmc = true;
  spec.epsilon = epsilon;
  spec.delta = 0.05;
  spec.fusion_key = "bench/complete8/node3/mcmc";
  spec.factory = [](const CancellationToken* cancel)
      -> StatusOr<std::unique_ptr<eval::ResumableSampler>> {
    auto wq = gadgets::RandomWalkQuery(gadgets::Complete(8), 0);
    if (!wq.ok()) return wq.status();
    auto compiled = eval::CompileOrFallBack(
        wq->kernel, wq->initial, eval::Backend::kAuto, 1 << 12, cancel);
    if (!compiled.ok()) return compiled.status();
    auto kernel = wq->kernel.Compile(wq->initial);
    if (!kernel.ok()) return kernel.status();
    eval::McmcParams params;
    params.burn_in = 50;
    params.max_samples = 1u << 17;
    return std::unique_ptr<eval::ResumableSampler>(
        new eval::ResumableMcmcChains(*kernel, wq->initial,
                                      gadgets::WalkAtNode(3), *compiled,
                                      params, /*num_chains=*/4, Rng(42)));
  };
  return spec;
}

// Tracks terminal events for a batch of subscriptions.
struct Completions {
  std::mutex mu;
  std::condition_variable cv;
  size_t done = 0;

  sched::UpdateSink Sink() {
    return [this](const std::string& line, bool /*droppable*/) {
      if (line.find("\"event\":\"complete\"") == std::string::npos &&
          line.find("\"event\":\"error\"") == std::string::npos) {
        return;
      }
      std::lock_guard<std::mutex> lock(mu);
      ++done;
      cv.notify_all();
    };
  }

  void WaitFor(size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done >= n; });
  }
};

struct FusionRun {
  uint64_t samples = 0;
  double ms = 0;
};

FusionRun RunFused(int subscribers, double epsilon) {
  FusionRun run;
  Completions completions;
  sched::SchedulerOptions options;
  options.workers = 2;
  sched::SampleScheduler scheduler(options);
  run.ms = bench::TimeMs([&] {
    for (int i = 0; i < subscribers; ++i) {
      auto sub = scheduler.Subscribe(McmcSpec(epsilon), completions.Sink());
      if (!sub.ok()) {
        std::fprintf(stderr, "bench_sched: subscribe failed: %s\n",
                     sub.status().ToString().c_str());
        std::exit(1);
      }
      if ((sub->fused ? 1 : 0) != (i > 0 ? 1 : 0)) {
        std::fprintf(stderr,
                     "bench_sched: subscription %d fused=%d (expected "
                     "fusion after the first)\n",
                     i, sub->fused ? 1 : 0);
        std::exit(1);
      }
    }
    completions.WaitFor(static_cast<size_t>(subscribers));
  });
  run.samples = scheduler.TotalSamples();
  return run;
}

// ---- (b) policy: synthetic CI schedules, samples-to-target ------------

// ci(n) = scale / sqrt(n + 1): "scale" controls how many samples a stream
// needs before its CI reaches the common target — the mixed workload.
class SyntheticSampler : public eval::ResumableSampler {
 public:
  SyntheticSampler(double scale, size_t budget) : scale_(scale) {
    snap_.budget = budget;
    snap_.estimate = 0.5;
    snap_.ci_halfwidth = scale_;
  }

  Status RunQuantum(size_t quantum, const CancellationToken* cancel) override {
    if (cancel != nullptr) {
      Status cancelled = cancel->Check();
      if (!cancelled.ok()) return cancelled;
    }
    const size_t take = std::min(quantum, snap_.budget - snap_.samples);
    snap_.samples += take;
    snap_.total_steps += take;
    snap_.ci_halfwidth =
        scale_ / std::sqrt(static_cast<double>(snap_.samples + 1));
    return Status::OK();
  }

 private:
  const double scale_;
};

// Watches update lines until every stream's CI is inside `target`; the
// total samples reported by the streams at that instant is the metric.
// (Reads the pushed payloads rather than calling back into the scheduler —
// sinks must not re-enter it.)
struct TargetWatch {
  std::mutex mu;
  std::condition_variable cv;
  double target;
  size_t expected;
  std::map<std::string, std::pair<double, uint64_t>> latest;  // sub -> (ci, n)
  bool reached = false;
  uint64_t samples_at = 0;

  TargetWatch(double target, size_t expected)
      : target(target), expected(expected) {}

  sched::UpdateSink Sink() {
    return [this](const std::string& line, bool /*droppable*/) {
      StatusOr<Json> parsed = Json::Parse(line);
      if (!parsed.ok()) return;
      const Json* sub = parsed->Find("sub");
      const Json* result = parsed->Find("result");
      if (sub == nullptr || result == nullptr) return;
      const Json* ci = result->Find("ci_halfwidth");
      const Json* samples = result->Find("samples");
      if (ci == nullptr || samples == nullptr) return;
      std::lock_guard<std::mutex> lock(mu);
      if (reached) return;
      latest[sub->AsString()] = {ci->AsDouble(),
                                 static_cast<uint64_t>(samples->AsInt())};
      if (latest.size() < expected) return;
      uint64_t total = 0;
      for (const auto& [id, entry] : latest) {
        if (entry.first > target) return;
        total += entry.second;
      }
      reached = true;
      samples_at = total;
      cv.notify_all();
    };
  }

  uint64_t Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return reached; });
    return samples_at;
  }
};

uint64_t RunPolicy(sched::Policy policy, double target,
                   const std::vector<double>& scales) {
  TargetWatch watch(target, scales.size());
  sched::SchedulerOptions options;
  options.workers = 1;  // serial service order is exactly what's compared
  options.quantum = 256;
  options.policy = policy;
  sched::SampleScheduler scheduler(options);
  for (double scale : scales) {
    sched::SubscriptionSpec spec;
    spec.kind = "approx";
    spec.epsilon = 1e-9;  // never converges: the external target governs
    spec.factory = [scale](const CancellationToken*)
        -> StatusOr<std::unique_ptr<eval::ResumableSampler>> {
      return std::unique_ptr<eval::ResumableSampler>(
          new SyntheticSampler(scale, 1u << 20));
    };
    auto sub = scheduler.Subscribe(std::move(spec), watch.Sink());
    if (!sub.ok()) {
      std::fprintf(stderr, "bench_sched: subscribe failed: %s\n",
                   sub.status().ToString().c_str());
      std::exit(1);
    }
  }
  const uint64_t samples = watch.Wait();
  scheduler.Shutdown();
  return samples;
}

}  // namespace

int main(int argc, char** argv) {
  const int subscribers = argc > 1 ? std::atoi(argv[1]) : 8;
  const double target = argc > 2 ? std::atof(argv[2]) : 0.05;

  Json results = Json::Object();

  // (a) Fusion economics.
  constexpr double kEpsilon = 0.02;
  const FusionRun single = RunFused(1, kEpsilon);
  const FusionRun fused = RunFused(subscribers, kEpsilon);
  const double ratio =
      single.samples > 0
          ? static_cast<double>(fused.samples) /
                static_cast<double>(single.samples)
          : 0.0;

  std::printf("== fusion economics (epsilon %.3f, mcmc on K8) ==\n",
              kEpsilon);
  bench::PrintRow({"subscribers", "samples", "ms"});
  bench::PrintRow({"1", bench::FmtInt(single.samples),
                   bench::Fmt(single.ms)});
  bench::PrintRow({std::to_string(subscribers), bench::FmtInt(fused.samples),
                   bench::Fmt(fused.ms)});
  std::printf("fused/single sample ratio: %.3f (gate <= 1.2)\n\n", ratio);

  Json fusion = Json::Object();
  fusion.Set("subscribers", static_cast<int64_t>(subscribers));
  fusion.Set("single_samples", static_cast<int64_t>(single.samples));
  fusion.Set("fused_samples", static_cast<int64_t>(fused.samples));
  fusion.Set("ratio", ratio);
  fusion.Set("single_ms", single.ms);
  fusion.Set("fused_ms", fused.ms);
  results.Set("fusion", std::move(fusion));

  // (b) Adaptive vs round-robin on a mixed workload: four streams needing
  // ~400 / ~1.6k / ~6.4k / ~25.6k samples to reach the target CI.
  const std::vector<double> scales = {1.0, 2.0, 4.0, 8.0};
  const uint64_t adaptive =
      RunPolicy(sched::Policy::kAdaptive, target, scales);
  const uint64_t round_robin =
      RunPolicy(sched::Policy::kRoundRobin, target, scales);
  const double win = adaptive > 0 ? static_cast<double>(round_robin) /
                                        static_cast<double>(adaptive)
                                  : 0.0;

  std::printf("== samples until every stream's CI <= %.3f ==\n", target);
  bench::PrintRow({"policy", "samples"});
  bench::PrintRow({"adaptive", bench::FmtInt(adaptive)});
  bench::PrintRow({"round_robin", bench::FmtInt(round_robin)});
  std::printf("round_robin/adaptive: %.2fx\n", win);

  Json policy = Json::Object();
  policy.Set("target_ci", target);
  policy.Set("adaptive_samples", static_cast<int64_t>(adaptive));
  policy.Set("round_robin_samples", static_cast<int64_t>(round_robin));
  policy.Set("win_factor", win);
  results.Set("policy", std::move(policy));

  std::ofstream out("BENCH_pr8.json");
  out << results.DumpPretty() << "\n";

  if (ratio > 1.2) {
    std::fprintf(stderr,
                 "bench_sched: FAIL: %d fused subscriptions cost %.3fx a "
                 "single run (gate 1.2x)\n",
                 subscribers, ratio);
    return 1;
  }
  if (adaptive * 10 >= round_robin * 9) {  // require >= ~1.11x win
    std::fprintf(stderr,
                 "bench_sched: FAIL: adaptive (%llu samples) did not beat "
                 "round-robin (%llu samples) to the target CI\n",
                 static_cast<unsigned long long>(adaptive),
                 static_cast<unsigned long long>(round_robin));
    return 1;
  }
  return 0;
}
