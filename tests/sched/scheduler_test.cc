// SampleScheduler behavior tests: fusion economics (N identical
// subscriptions ride one sampler), the starvation regression for the aging
// term, completion reasons (converged / budget+degraded / unsubscribed /
// shutdown / error), and R̂-gated completion driven by the real
// persistent-chain MCMC sampler on fast- vs slow-mixing kernels.
//
// Declaration-order note: every Stream is declared before the scheduler
// that holds its sink, so the collector outlives the worker threads that
// may still be delivering lines during scheduler teardown.
#include "sched/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "eval/resumable.h"
#include "gadgets/graphs.h"
#include "sched/convergence.h"
#include "util/json.h"

namespace pfql {
namespace sched {
namespace {

using std::chrono::milliseconds;

// Deterministic sampler: a fixed budget and a caller-supplied CI schedule
// keyed on the running sample count. An optional per-quantum delay slows
// the scheduler's spin so wall-clock-based tests (aging) have traction.
class FakeSampler : public eval::ResumableSampler {
 public:
  FakeSampler(size_t budget, std::function<double(size_t)> ci_fn,
              milliseconds delay = milliseconds(0),
              std::atomic<int>* quanta = nullptr)
      : ci_fn_(std::move(ci_fn)), delay_(delay), quanta_(quanta) {
    snap_.budget = budget;
    snap_.estimate = 0.5;
  }

  Status RunQuantum(size_t quantum, const CancellationToken* cancel) override {
    if (cancel != nullptr) {
      Status cancelled = cancel->Check();
      if (!cancelled.ok()) return cancelled;
    }
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    const size_t take = std::min(quantum, snap_.budget - snap_.samples);
    snap_.samples += take;
    snap_.total_steps += take;
    snap_.ci_halfwidth = ci_fn_(snap_.samples);
    if (quanta_ != nullptr) quanta_->fetch_add(1);
    return Status::OK();
  }

 private:
  const std::function<double(size_t)> ci_fn_;
  const milliseconds delay_;
  std::atomic<int>* const quanta_;
};

// Collects one subscription's pushed lines; must outlive the scheduler
// that holds its sink.
struct Stream {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Json> lines;
  bool terminal = false;
  std::string last_event;
  std::string reason;  // set on "complete"; empty for "error"

  UpdateSink Sink() {
    return [this](const std::string& line, bool /*droppable*/) {
      StatusOr<Json> parsed = Json::Parse(line);
      std::lock_guard<std::mutex> lock(mu);
      if (!parsed.ok()) return;
      lines.push_back(*std::move(parsed));
      const Json* event = lines.back().Find("event");
      if (event != nullptr && event->is_string()) {
        last_event = event->AsString();
        if (last_event == "complete" || last_event == "error") {
          const Json* r = lines.back().Find("reason");
          if (r != nullptr && r->is_string()) reason = r->AsString();
          terminal = true;
          cv.notify_all();
        }
      }
    };
  }

  bool WaitTerminal(milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, timeout, [this] { return terminal; });
  }

  bool Terminal() {
    std::lock_guard<std::mutex> lock(mu);
    return terminal;
  }

  size_t LineCount() {
    std::lock_guard<std::mutex> lock(mu);
    return lines.size();
  }

  // The final complete/error line's "result" object (null Json if absent).
  Json TerminalResult() {
    std::lock_guard<std::mutex> lock(mu);
    if (lines.empty()) return Json();
    const Json* result = lines.back().Find("result");
    return result != nullptr ? *result : Json();
  }

  // Event/seq/result fingerprints with the per-subscriber "sub" id removed,
  // for comparing two fused subscribers' streams line by line.
  std::vector<std::string> FingerprintsWithoutSub() {
    std::lock_guard<std::mutex> lock(mu);
    std::vector<std::string> out;
    out.reserve(lines.size());
    for (const Json& line : lines) {
      std::string fp;
      if (const Json* e = line.Find("event"); e != nullptr) fp += e->Dump();
      fp += '|';
      if (const Json* s = line.Find("seq"); s != nullptr) fp += s->Dump();
      fp += '|';
      if (const Json* r = line.Find("result"); r != nullptr) fp += r->Dump();
      fp += '|';
      if (const Json* r = line.Find("reason"); r != nullptr) fp += r->Dump();
      out.push_back(std::move(fp));
    }
    return out;
  }
};

SubscriptionSpec FakeSpec(const std::string& fusion_key, double epsilon,
                          size_t budget, std::function<double(size_t)> ci_fn,
                          milliseconds delay = milliseconds(0),
                          std::atomic<int>* quanta = nullptr) {
  SubscriptionSpec spec;
  spec.kind = "approx";
  spec.fusion_key = fusion_key;
  spec.epsilon = epsilon;
  spec.factory = [budget, ci_fn = std::move(ci_fn), delay,
                  quanta](const CancellationToken*)
      -> StatusOr<std::unique_ptr<eval::ResumableSampler>> {
    return std::unique_ptr<eval::ResumableSampler>(
        new FakeSampler(budget, ci_fn, delay, quanta));
  };
  return spec;
}

TEST(SampleSchedulerTest, ConvergedCompletionCarriesResult) {
  SchedulerOptions options;
  options.workers = 1;
  options.quantum = 128;
  Stream stream;
  SampleScheduler scheduler(options);

  // CI drops inside epsilon at 256 samples, far before the 1<<20 budget.
  auto sub = scheduler.Subscribe(
      FakeSpec("", 0.05, 1u << 20,
               [](size_t n) { return n >= 256 ? 0.01 : 0.5; }),
      stream.Sink());
  ASSERT_TRUE(sub.ok()) << sub.status();
  EXPECT_FALSE(sub->fused);

  ASSERT_TRUE(stream.WaitTerminal(milliseconds(10000)));
  EXPECT_EQ(stream.last_event, "complete");
  EXPECT_EQ(stream.reason, "converged");
  const Json result = stream.TerminalResult();
  ASSERT_NE(result.Find("degraded"), nullptr);
  EXPECT_FALSE(result.Find("degraded")->AsBool());
  EXPECT_EQ(result.Find("samples")->AsInt(), 256);
  EXPECT_NEAR(result.Find("ci_halfwidth")->AsDouble(), 0.01, 1e-12);
  EXPECT_EQ(scheduler.ActiveSubscriptions(), 0u);
}

TEST(SampleSchedulerTest, BudgetExhaustionCompletesDegraded) {
  SchedulerOptions options;
  options.workers = 1;
  options.quantum = 256;
  Stream stream;
  SampleScheduler scheduler(options);

  // CI never reaches epsilon; the 512-sample budget ends the stream.
  auto sub = scheduler.Subscribe(
      FakeSpec("", 0.05, 512, [](size_t) { return 0.2; }), stream.Sink());
  ASSERT_TRUE(sub.ok()) << sub.status();

  ASSERT_TRUE(stream.WaitTerminal(milliseconds(10000)));
  EXPECT_EQ(stream.reason, "budget");
  const Json result = stream.TerminalResult();
  ASSERT_NE(result.Find("degraded"), nullptr);
  EXPECT_TRUE(result.Find("degraded")->AsBool());
  EXPECT_EQ(result.Find("samples")->AsInt(), 512);
  EXPECT_EQ(scheduler.TotalSamples(), 512u);
}

TEST(SampleSchedulerTest, FusionSharesOneSamplerAndStreamsMatch) {
  SchedulerOptions options;
  options.workers = 2;
  options.quantum = 256;
  Stream a;
  Stream b;
  SampleScheduler scheduler(options);

  std::atomic<int> factory_calls{0};
  SubscriptionSpec spec;
  spec.kind = "approx";
  spec.fusion_key = "prog-h/inst-h/approx/params";
  spec.epsilon = 0.05;
  spec.factory =
      [&factory_calls](const CancellationToken*)
      -> StatusOr<std::unique_ptr<eval::ResumableSampler>> {
    factory_calls.fetch_add(1);
    // Slow factory: the second Subscribe lands while the sampler is still
    // being built, so neither subscriber gets a snapshot catch-up push and
    // their streams must match line for line.
    std::this_thread::sleep_for(milliseconds(100));
    return std::unique_ptr<eval::ResumableSampler>(new FakeSampler(
        1u << 20, [](size_t n) { return n >= 1024 ? 0.01 : 0.5; }));
  };

  auto ra = scheduler.Subscribe(spec, a.Sink());
  ASSERT_TRUE(ra.ok()) << ra.status();
  auto rb = scheduler.Subscribe(spec, b.Sink());
  ASSERT_TRUE(rb.ok()) << rb.status();
  EXPECT_FALSE(ra->fused);
  EXPECT_TRUE(rb->fused);
  EXPECT_NE(ra->id, rb->id);

  ASSERT_TRUE(a.WaitTerminal(milliseconds(10000)));
  ASSERT_TRUE(b.WaitTerminal(milliseconds(10000)));
  EXPECT_EQ(a.reason, "converged");
  EXPECT_EQ(b.reason, "converged");

  // One sampler, one budget: the fused pair costs what a single
  // subscription costs (the 1.2x acceptance bound with margin to spare).
  EXPECT_EQ(factory_calls.load(), 1);
  EXPECT_LE(scheduler.TotalSamples(), static_cast<uint64_t>(1024 * 1.2));

  // Identical update streams modulo the subscriber id.
  EXPECT_EQ(a.FingerprintsWithoutSub(), b.FingerprintsWithoutSub());
}

TEST(SampleSchedulerTest, AgingServicesNarrowTaskUnderWideLoad) {
  // Starvation regression: with one worker and pure widest-CI-first, the
  // ci=1.0 task would win every quantum and the narrow task would never
  // finish its 256-sample budget. The aging term must let it through.
  SchedulerOptions options;
  options.workers = 1;
  options.quantum = 64;
  options.policy = Policy::kAdaptive;
  options.aging_rate = 50.0;  // ages past ci=1.0 within ~20 ms of waiting
  Stream wide;
  Stream narrow;
  SampleScheduler scheduler(options);

  auto rw = scheduler.Subscribe(
      FakeSpec("", 1e-9, 1u << 30, [](size_t) { return 1.0; },
               milliseconds(1)),
      wide.Sink());
  ASSERT_TRUE(rw.ok()) << rw.status();

  auto rn = scheduler.Subscribe(
      FakeSpec("", 1e-9, 256, [](size_t) { return 0.01; }), narrow.Sink());
  ASSERT_TRUE(rn.ok()) << rn.status();

  // The narrow subscription must complete (budget) despite always losing
  // the instantaneous-CI comparison.
  ASSERT_TRUE(narrow.WaitTerminal(milliseconds(20000)))
      << "narrow-CI subscription starved by wide-CI task";
  EXPECT_EQ(narrow.reason, "budget");
  EXPECT_FALSE(wide.Terminal());

  scheduler.Shutdown();
  ASSERT_TRUE(wide.WaitTerminal(milliseconds(10000)));
  EXPECT_EQ(wide.reason, "shutdown");
}

TEST(SampleSchedulerTest, RoundRobinServicesEveryTask) {
  SchedulerOptions options;
  options.workers = 1;
  options.quantum = 128;
  options.policy = Policy::kRoundRobin;
  std::vector<std::unique_ptr<Stream>> streams;
  SampleScheduler scheduler(options);

  for (int i = 0; i < 4; ++i) {
    streams.push_back(std::make_unique<Stream>());
    auto sub = scheduler.Subscribe(
        FakeSpec("", 1e-9, 384, [](size_t) { return 0.5; }),
        streams.back()->Sink());
    ASSERT_TRUE(sub.ok()) << sub.status();
  }
  for (auto& stream : streams) {
    ASSERT_TRUE(stream->WaitTerminal(milliseconds(10000)));
    EXPECT_EQ(stream->reason, "budget");
  }
  EXPECT_EQ(scheduler.TotalSamples(), 4u * 384u);
}

TEST(SampleSchedulerTest, UnsubscribeCompletesStreamAndDiscardsTask) {
  SchedulerOptions options;
  options.workers = 1;
  options.quantum = 64;
  Stream stream;
  SampleScheduler scheduler(options);

  auto sub = scheduler.Subscribe(
      FakeSpec("", 1e-9, 1u << 30, [](size_t) { return 0.5; },
               milliseconds(1)),
      stream.Sink());
  ASSERT_TRUE(sub.ok()) << sub.status();
  EXPECT_EQ(scheduler.ActiveSubscriptions(), 1u);

  // Let at least one update flow so we unsubscribe a genuinely live stream.
  const auto deadline = std::chrono::steady_clock::now() + milliseconds(5000);
  while (stream.LineCount() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  ASSERT_GT(stream.LineCount(), 0u);

  EXPECT_TRUE(scheduler.Unsubscribe(sub->id));
  ASSERT_TRUE(stream.WaitTerminal(milliseconds(10000)));
  EXPECT_EQ(stream.reason, "unsubscribed");
  EXPECT_EQ(scheduler.ActiveSubscriptions(), 0u);
  // The backing task (no subscribers left) is discarded once its in-flight
  // quantum settles.
  const auto task_deadline =
      std::chrono::steady_clock::now() + milliseconds(5000);
  while (scheduler.ActiveTasks() != 0 &&
         std::chrono::steady_clock::now() < task_deadline) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  EXPECT_EQ(scheduler.ActiveTasks(), 0u);

  // A second unsubscribe (or a bogus id) is a clean miss, not an error.
  EXPECT_FALSE(scheduler.Unsubscribe(sub->id));
  EXPECT_FALSE(scheduler.Unsubscribe("s-999999"));
}

TEST(SampleSchedulerTest, FactoryErrorPushesStructuredError) {
  Stream stream;
  SampleScheduler scheduler;

  SubscriptionSpec spec;
  spec.kind = "approx";
  spec.epsilon = 0.05;
  spec.factory = [](const CancellationToken*)
      -> StatusOr<std::unique_ptr<eval::ResumableSampler>> {
    return Status::Internal("sampler build exploded");
  };

  auto sub = scheduler.Subscribe(spec, stream.Sink());
  ASSERT_TRUE(sub.ok()) << sub.status();

  ASSERT_TRUE(stream.WaitTerminal(milliseconds(10000)));
  EXPECT_EQ(stream.last_event, "error");
  std::lock_guard<std::mutex> lock(stream.mu);
  const Json* error = stream.lines.back().Find("error");
  ASSERT_NE(error, nullptr);
  const Json* message = error->Find("message");
  ASSERT_NE(message, nullptr);
  EXPECT_NE(message->AsString().find("sampler build exploded"),
            std::string::npos);
}

TEST(SampleSchedulerTest, MaxSubscriptionsRejectsWithResourceExhausted) {
  SchedulerOptions options;
  options.max_subscriptions = 2;
  Stream a;
  Stream b;
  Stream c;
  SampleScheduler scheduler(options);

  ASSERT_TRUE(scheduler
                  .Subscribe(FakeSpec("", 1e-9, 1u << 30,
                                      [](size_t) { return 0.5; },
                                      milliseconds(1)),
                             a.Sink())
                  .ok());
  ASSERT_TRUE(scheduler
                  .Subscribe(FakeSpec("", 1e-9, 1u << 30,
                                      [](size_t) { return 0.5; },
                                      milliseconds(1)),
                             b.Sink())
                  .ok());
  auto rejected = scheduler.Subscribe(
      FakeSpec("", 1e-9, 1u << 30, [](size_t) { return 0.5; },
               milliseconds(1)),
      c.Sink());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  scheduler.Shutdown();
  ASSERT_TRUE(a.WaitTerminal(milliseconds(10000)));
  ASSERT_TRUE(b.WaitTerminal(milliseconds(10000)));
  EXPECT_FALSE(c.Terminal());
}

TEST(SampleSchedulerTest, StatsJsonReportsPolicyAndCounts) {
  SchedulerOptions options;
  options.policy = Policy::kAdaptive;
  Stream stream;
  SampleScheduler scheduler(options);

  ASSERT_TRUE(scheduler
                  .Subscribe(FakeSpec("", 1e-9, 1u << 30,
                                      [](size_t) { return 0.5; },
                                      milliseconds(1)),
                             stream.Sink())
                  .ok());
  const Json stats = scheduler.StatsJson();
  ASSERT_NE(stats.Find("policy"), nullptr);
  EXPECT_EQ(stats.Find("policy")->AsString(), "adaptive");
  ASSERT_NE(stats.Find("active_subscriptions"), nullptr);
  EXPECT_EQ(stats.Find("active_subscriptions")->AsInt(), 1);
  scheduler.Shutdown();
}

// ---- R̂-gated completion with the real persistent-chain sampler ---------

// Persistent chains over a random walk, on the compiled tier when the
// chain fits (backend auto).
StatusOr<std::unique_ptr<eval::ResumableMcmcChains>> MakeChains(
    const gadgets::Graph& graph, int64_t event_node,
    const eval::McmcParams& params, size_t num_chains, uint64_t seed) {
  auto wq = gadgets::RandomWalkQuery(graph, 0);
  if (!wq.ok()) return wq.status();
  auto compiled = eval::CompileOrFallBack(wq->kernel, wq->initial,
                                          eval::Backend::kAuto, 1 << 12,
                                          nullptr);
  if (!compiled.ok()) return compiled.status();
  auto kernel = wq->kernel.Compile(wq->initial);
  if (!kernel.ok()) return kernel.status();
  return std::make_unique<eval::ResumableMcmcChains>(
      *kernel, wq->initial, gadgets::WalkAtNode(event_node), *compiled,
      params, num_chains, Rng(seed));
}

SubscriptionSpec McmcSpec(const gadgets::Graph& graph, int64_t event_node,
                          const eval::McmcParams& params, size_t num_chains,
                          uint64_t seed, double epsilon) {
  SubscriptionSpec spec;
  spec.kind = "mcmc";
  spec.is_mcmc = true;
  spec.epsilon = epsilon;
  spec.delta = params.delta;
  spec.factory = [graph, event_node, params, num_chains,
                  seed](const CancellationToken*)
      -> StatusOr<std::unique_ptr<eval::ResumableSampler>> {
    auto chains = MakeChains(graph, event_node, params, num_chains, seed);
    if (!chains.ok()) return chains.status();
    return std::unique_ptr<eval::ResumableSampler>(std::move(*chains));
  };
  return spec;
}

TEST(SampleSchedulerRhatTest, FastMixerCompletesEarlyWithRhatNearOne) {
  SchedulerOptions options;
  options.workers = 1;
  options.quantum = 256;
  Stream stream;
  SampleScheduler scheduler(options);

  eval::McmcParams mcmc;
  mcmc.burn_in = 10;
  mcmc.max_samples = 1u << 16;

  auto sub = scheduler.Subscribe(
      McmcSpec(gadgets::Complete(4), 2, mcmc, /*num_chains=*/4, /*seed=*/7,
               0.1),
      stream.Sink());
  ASSERT_TRUE(sub.ok()) << sub.status();

  ASSERT_TRUE(stream.WaitTerminal(milliseconds(30000)));
  EXPECT_EQ(stream.reason, "converged");
  const Json result = stream.TerminalResult();
  ASSERT_NE(result.Find("rhat"), nullptr);
  EXPECT_LT(result.Find("rhat")->AsDouble(), 1.05);
  // Early termination: convergence ended the stream well inside the cap.
  EXPECT_LT(result.Find("samples")->AsInt(),
            static_cast<int64_t>(mcmc.max_samples));
  EXPECT_NEAR(result.Find("estimate")->AsDouble(), 0.25, 0.05);
}

TEST(SampleSchedulerRhatTest, SlowMixerNeverConvergesDespiteTightPerChainCi) {
  // The frozen two-lobe kernel: each chain's indicator stream is constant
  // after one step, so per-chain statistics look perfectly settled — only
  // the cross-chain R̂ (pinned at the ceiling when chains land in both
  // lobes) withholds convergence, forcing a degraded budget completion.
  gadgets::Graph lobes;
  lobes.num_nodes = 3;
  lobes.edges = {{0, 1, 1.0}, {0, 2, 1.0}, {1, 1, 1.0}, {2, 2, 1.0}};

  eval::McmcParams mcmc;
  mcmc.burn_in = 2;
  mcmc.max_samples = 2048;

  // Premise check on a twin sampler (same seed => same chain fates): the
  // diagnostic only has signal when chains are absorbed in both lobes.
  {
    auto twin = MakeChains(lobes, 2, mcmc, /*num_chains=*/4, /*seed=*/5);
    ASSERT_TRUE(twin.ok()) << twin.status();
    while (!(*twin)->Exhausted()) {
      ASSERT_TRUE((*twin)->RunQuantum(256, nullptr).ok());
    }
    bool saw_lobe1 = false;
    bool saw_lobe2 = false;
    for (const eval::ChainStats& chain : (*twin)->chains()) {
      if (chain.sum == 0.0) saw_lobe1 = true;
      if (chain.sum == static_cast<double>(chain.count)) saw_lobe2 = true;
    }
    ASSERT_TRUE(saw_lobe1 && saw_lobe2)
        << "seed landed every chain in one lobe; pick another seed";
  }

  SchedulerOptions options;
  options.workers = 1;
  options.quantum = 256;
  Stream stream;
  SampleScheduler scheduler(options);

  auto sub =
      scheduler.Subscribe(McmcSpec(lobes, 2, mcmc, 4, 5, 0.05), stream.Sink());
  ASSERT_TRUE(sub.ok()) << sub.status();

  ASSERT_TRUE(stream.WaitTerminal(milliseconds(30000)));
  EXPECT_EQ(stream.reason, "budget");
  const Json result = stream.TerminalResult();
  ASSERT_NE(result.Find("degraded"), nullptr);
  EXPECT_TRUE(result.Find("degraded")->AsBool());
  ASSERT_NE(result.Find("rhat"), nullptr);
  EXPECT_GT(result.Find("rhat")->AsDouble(), options.rhat_threshold);
}

}  // namespace
}  // namespace sched
}  // namespace pfql
