#include "markov/compiled_chain.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "util/metrics.h"
#include "util/trace.h"

namespace pfql {

namespace {

// FNV-1a style 64-bit fold; order-sensitive by construction.
uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL;
  return (h ^ (h >> 29)) * 0x100000001b3ULL;
}

}  // namespace

StatusOr<CompiledChain> CompiledChain::Compile(const MarkovChain& chain) {
  const size_t n = chain.num_states();
  const size_t edges = chain.num_entries();
  CompiledChain out;
  out.row_offsets_ = chain.offsets();
  out.col_.reserve(edges);
  out.prob_q_.reserve(edges);
  out.alias_cut_.assign(edges, 0);
  out.alias_state_.assign(edges, 0);

  const BigInt scale(static_cast<int64_t>(kProbScale));
  // Scratch for the largest-remainder pass: local entry index, remainder
  // of prob*scale/den, and the entry's denominator for cross-multiplied
  // remainder comparison (entries of one row have unrelated denominators).
  struct Rem {
    uint32_t j;
    BigInt rem;
    const BigInt* den;
  };
  std::vector<Rem> rems;
  std::vector<uint32_t> small, large;

  for (size_t s = 0; s < n; ++s) {
    const uint32_t begin = static_cast<uint32_t>(out.col_.size());

    // 1. Fixed-point quantization, floor first. Exact BigInt arithmetic:
    //    q = floor(num*scale/den), so |p - q/scale| < 1/scale per entry.
    rems.clear();
    uint64_t sum_q = 0;
    for (const auto& [to, p] : chain.Row(s)) {
      BigInt q, rem;
      BigInt::DivMod(p.num() * scale, p.den(), &q, &rem);
      auto qi = q.ToInt64();
      PFQL_RETURN_NOT_OK(qi.status());
      const uint32_t j = static_cast<uint32_t>(out.col_.size()) - begin;
      out.col_.push_back(to);
      out.prob_q_.push_back(static_cast<uint16_t>(*qi));
      sum_q += static_cast<uint64_t>(*qi);
      if (!rem.IsZero()) rems.push_back({j, std::move(rem), &p.den()});
    }
    const uint32_t k = static_cast<uint32_t>(out.col_.size()) - begin;

    // 2. Largest-remainder rounding: distribute the deficit to the
    //    entries with the largest fractional parts (ties: lower index),
    //    making the row sum exactly kProbScale.
    if (sum_q > kProbScale) {
      return Status::InvalidArgument("row " + std::to_string(s) +
                                     " quantizes above the scale");
    }
    uint64_t deficit = kProbScale - sum_q;
    if (deficit > rems.size()) {
      return Status::InvalidArgument("row " + std::to_string(s) +
                                     " does not sum to 1");
    }
    if (deficit > 0) {
      std::sort(rems.begin(), rems.end(), [](const Rem& a, const Rem& b) {
        const int cmp = (a.rem * *b.den).Compare(b.rem * *a.den);
        if (cmp != 0) return cmp > 0;
        return a.j < b.j;
      });
      for (uint64_t d = 0; d < deficit; ++d) {
        ++out.prob_q_[begin + rems[d].j];
      }
    }

    // 3. Integer Vose alias table over the quantized row: k slots of
    //    capacity kProbScale each, entry weights w[j] = prob_q[j]*k
    //    (total k*kProbScale, average exactly kProbScale). All integer,
    //    so entry j is drawn with probability exactly prob_q[j]/scale.
    small.clear();
    large.clear();
    std::vector<uint64_t> w(k);
    for (uint32_t j = 0; j < k; ++j) {
      w[j] = static_cast<uint64_t>(out.prob_q_[begin + j]) * k;
      (w[j] < kProbScale ? small : large).push_back(j);
    }
    while (!small.empty() && !large.empty()) {
      const uint32_t sj = small.back();
      small.pop_back();
      const uint32_t lj = large.back();
      out.alias_cut_[begin + sj] = static_cast<uint16_t>(w[sj]);
      out.alias_state_[begin + sj] = out.col_[begin + lj];
      w[lj] -= kProbScale - w[sj];
      if (w[lj] < kProbScale) {
        large.pop_back();
        small.push_back(lj);
      }
    }
    // Leftovers hold exactly kProbScale by conservation: the cut saturates
    // and the alias branch is unreachable (thresholds are < kProbScale).
    for (const auto& stack : {large, small}) {
      for (uint32_t j : stack) {
        out.alias_cut_[begin + j] = static_cast<uint16_t>(kProbScale);
        out.alias_state_[begin + j] = out.col_[begin + j];
      }
    }
  }
  return out;
}

Status CompiledChain::StepBatch(std::vector<uint32_t>* walkers, size_t steps,
                                Rng* rng,
                                const CancellationToken* cancel) const {
  if (walkers == nullptr || rng == nullptr) {
    return Status::InvalidArgument("null walkers or rng");
  }
  const size_t n = walkers->size();
  for (uint32_t state : *walkers) {
    if (state >= num_states()) {
      return Status::InvalidArgument("walker state out of range");
    }
  }
  if (n == 0 || steps == 0) return Status::OK();
  // Poll roughly every 4096 draws: per wave for wide batches, at a stride
  // for narrow ones, so a single 2^30-step walker still sees deadlines
  // every few microseconds without a clock read in the hot loop.
  const uint32_t stride =
      static_cast<uint32_t>(std::max<size_t>(64, 4096 / n));
  CancelPoller poller(cancel, stride);
  uint32_t* w = walkers->data();
  for (size_t t = 0; t < steps; ++t) {
    PFQL_RETURN_NOT_OK(poller.Tick());
    for (size_t i = 0; i < n; ++i) w[i] = Step(w[i], rng);
  }
  return Status::OK();
}

StatusOr<CompiledChain::StationaryResult> CompiledChain::Stationary(
    size_t max_iters, double tolerance) const {
  const size_t n = num_states();
  if (n == 0) return Status::InvalidArgument("empty chain");
  if (tolerance <= 0.0) {
    return Status::InvalidArgument("tolerance must be positive");
  }
  std::vector<double> p(num_edges());
  for (size_t e = 0; e < num_edges(); ++e) {
    p[e] = static_cast<double>(prob_q_[e]) / kProbScale;
  }
  StationaryResult result;
  result.pi.assign(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n);
  for (size_t iter = 1; iter <= max_iters; ++iter) {
    // One step of the lazy chain (P+I)/2: same stationary distribution,
    // geometric convergence for every irreducible chain (periodic too).
    std::fill(next.begin(), next.end(), 0.0);
    for (size_t s = 0; s < n; ++s) {
      const double half = 0.5 * result.pi[s];
      next[s] += half;
      const uint32_t end = row_offsets_[s + 1];
      for (uint32_t e = row_offsets_[s]; e < end; ++e) {
        next[col_[e]] += half * p[e];
      }
    }
    // Quantized rows sum to exactly kProbScale in integers but only to
    // ~1.0 in doubles; renormalize so pi stays a distribution.
    double total = 0.0;
    for (double v : next) total += v;
    if (total > 0.0) {
      for (double& v : next) v /= total;
    }
    double tv = 0.0;
    for (size_t s = 0; s < n; ++s) tv += std::abs(next[s] - result.pi[s]);
    result.residual = 0.5 * tv;
    result.iterations = iter;
    result.pi.swap(next);
    if (result.residual < tolerance) return result;
  }
  return Status::ResourceExhausted(
      "stationary power iteration did not converge in " +
      std::to_string(max_iters) + " iterations (residual " +
      std::to_string(result.residual) + ", tolerance " +
      std::to_string(tolerance) + ")");
}

uint64_t KernelFingerprint(const Interpretation& kernel,
                           const Instance& initial, size_t max_states) {
  uint64_t h = Mix(0x9ae16a3b2f90404fULL,
                   std::hash<std::string>{}(kernel.ToString()));
  h = Mix(h, static_cast<uint64_t>(initial.Hash()));
  return Mix(h, static_cast<uint64_t>(max_states));
}

// ---- Memo cache -------------------------------------------------------

struct CompiledChainCache::Impl {
  std::mutex mu;
  struct Entry {
    std::shared_ptr<const CompiledSpace> value;
    uint64_t tick = 0;
  };
  std::unordered_map<uint64_t, Entry> by_fp;
  uint64_t tick = 0;
  Stats stats;

  void EvictIfFull() {
    while (by_fp.size() > kCapacity) {
      auto oldest = by_fp.begin();
      for (auto it = by_fp.begin(); it != by_fp.end(); ++it) {
        if (it->second.tick < oldest->second.tick) oldest = it;
      }
      by_fp.erase(oldest);
    }
  }
};

CompiledChainCache& CompiledChainCache::Instance() {
  static CompiledChainCache* const cache = new CompiledChainCache();
  return *cache;
}

CompiledChainCache::Impl& CompiledChainCache::impl() {
  static Impl* const impl = new Impl();
  return *impl;
}

std::shared_ptr<const CompiledSpace> CompiledChainCache::FindByFingerprint(
    uint64_t fp) {
  Impl& state = impl();
  std::lock_guard<std::mutex> lock(state.mu);
  auto it = state.by_fp.find(fp);
  if (it == state.by_fp.end()) {
    ++state.stats.misses;
    return nullptr;
  }
  it->second.tick = ++state.tick;
  ++state.stats.fingerprint_hits;
  return it->second.value;
}

void CompiledChainCache::Insert(uint64_t fp,
                                std::shared_ptr<const CompiledSpace> entry) {
  if (entry == nullptr) return;
  Impl& state = impl();
  std::lock_guard<std::mutex> lock(state.mu);
  auto& slot = state.by_fp[fp];
  if (slot.value == nullptr) slot.value = std::move(entry);
  slot.tick = ++state.tick;
  state.EvictIfFull();
}

void CompiledChainCache::Clear() {
  Impl& state = impl();
  std::lock_guard<std::mutex> lock(state.mu);
  state.by_fp.clear();
  state.stats = Stats{};
}

CompiledChainCache::Stats CompiledChainCache::GetStats() {
  Impl& state = impl();
  std::lock_guard<std::mutex> lock(state.mu);
  Stats stats = state.stats;
  stats.entries = state.by_fp.size();
  return stats;
}

StatusOr<std::shared_ptr<const CompiledSpace>> GetOrCompile(
    const Interpretation& kernel, const Instance& initial,
    const CompileOptions& options) {
  auto& registry = metrics::MetricRegistry::Instance();
  static metrics::Counter* const fp_hits = registry.GetCounter(
      "pfql_compile_total", "outcome=\"fingerprint_hit\"");
  static metrics::Counter* const compiles =
      registry.GetCounter("pfql_compile_total", "outcome=\"compiled\"");
  static metrics::Counter* const states_total =
      registry.GetCounter("pfql_compile_states_total");
  static metrics::Counter* const edges_total =
      registry.GetCounter("pfql_compile_edges_total");
  static metrics::Histogram* const duration_us = registry.GetHistogram(
      "pfql_compile_duration_us", metrics::DefaultLatencyBucketsUs());

  CompiledChainCache& cache = CompiledChainCache::Instance();
  const uint64_t fp = KernelFingerprint(kernel, initial, options.max_states);
  if (auto hit = cache.FindByFingerprint(fp)) {
    fp_hits->Increment();
    return hit;
  }

  trace::Span span("compile");
  const auto started = std::chrono::steady_clock::now();
  StateSpaceOptions sso;
  sso.max_states = options.max_states;
  sso.threads = options.threads;
  sso.cancel = options.cancel;
  PFQL_ASSIGN_OR_RETURN(StateSpace space,
                        BuildStateSpace(kernel, initial, sso));

  PFQL_ASSIGN_OR_RETURN(CompiledChain compiled,
                        CompiledChain::Compile(space.chain));
  auto entry = std::make_shared<const CompiledSpace>(
      CompiledSpace{std::move(space.states), std::move(compiled)});
  cache.Insert(fp, entry);
  compiles->Increment();
  states_total->Increment(entry->chain.num_states());
  edges_total->Increment(entry->chain.num_edges());
  duration_us->Observe(std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - started)
                           .count());
  return entry;
}

}  // namespace pfql
