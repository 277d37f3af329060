#include "markov/state_space.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>
#include <utility>

#include "markov/concurrent_interner.h"
#include "util/epoch.h"
#include "util/fault_injection.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace pfql {

namespace {

// One expanded frontier state: the successor distribution with every
// successor instance already interned (moved into the shared concurrent
// interner) and replaced by its provisional id. Workers do the instance
// hashing, equality probing, and deduplication in parallel; the sequential
// merge pass that follows only shuffles integers: it rewrites each
// provisional id to its canonical one and moves the list into the chain as
// the state's row.
struct ExpandedState {
  Status status = Status::OK();
  std::vector<std::pair<size_t, BigRational>> successors;  // (prov id, p)
};

// Expands every state in [wave_begin, wave_end) of the canonical frontier,
// writing the result for canonical state (wave_begin + k) into
// (*results)[k]. With options.threads > 1 the frontier indices are claimed
// from an atomic counter by worker threads; each worker writes a slot no
// other worker touches, and interns successors through `interner`, whose
// striped table is the only shared write target (per-stripe spinlocks, no
// global lock — see concurrent_interner.h).
void ExpandWave(const CompiledKernel& q, ConcurrentInterner* interner,
                const std::vector<size_t>& canon_to_prov, size_t wave_begin,
                size_t wave_end, const StateSpaceOptions& options,
                std::vector<ExpandedState>* results) {
  const size_t wave_size = wave_end - wave_begin;
  auto expand_one = [&](size_t k) {
    ExpandedState& out = (*results)[k];
    // Poll before the (potentially slow) kernel application so an expired
    // deadline short-circuits the rest of the wave.
    if (options.cancel != nullptr) {
      Status cancelled = options.cancel->Check();
      if (!cancelled.ok()) {
        out.status = std::move(cancelled);
        return;
      }
    }
    if (fault::InjectFault(fault::points::kStateSpaceExpand)) {
      out.status = fault::InjectedError(fault::points::kStateSpaceExpand);
      return;
    }
    StatusOr<Distribution<Instance>> successors = q.Exact(
        interner->At(canon_to_prov[wave_begin + k]), options.eval);
    if (!successors.ok()) {
      out.status = successors.status();
      return;
    }
    out.successors.reserve(successors.value().outcomes().size());
    for (auto& outcome : successors.value().MutableOutcomes()) {
      // Interning here (worker thread) does the hash + equality work in
      // parallel; duplicates across workers resolve inside one stripe.
      const size_t prov = interner->Intern(std::move(outcome.value)).first;
      out.successors.emplace_back(prov, std::move(outcome.probability));
    }
  };

  const size_t threads =
      options.threads > 1 ? std::min(options.threads, wave_size) : 1;
  if (threads <= 1) {
    for (size_t k = 0; k < wave_size; ++k) expand_one(k);
    return;
  }
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (;;) {
      const size_t k = next.fetch_add(1, std::memory_order_relaxed);
      if (k >= wave_size) return;
      expand_one(k);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
}

}  // namespace

std::vector<bool> StateSpace::EventStates(const QueryEvent& event) const {
  std::vector<bool> out(states.size(), false);
  for (size_t i = 0; i < states.size(); ++i) {
    out[i] = event.Holds(states[i]);
  }
  return out;
}

StatusOr<StateSpace> BuildStateSpace(const Interpretation& q,
                                     const Instance& initial,
                                     const StateSpaceOptions& options) {
  trace::Span span("state_space.build");
  static metrics::Counter* const states_counter =
      metrics::MetricRegistry::Instance().GetCounter(
          "pfql_state_space_states_total");
  static metrics::Counter* const waves_counter =
      metrics::MetricRegistry::Instance().GetCounter(
          "pfql_state_space_waves_total");

  // Wave BFS over provisional ids. Workers intern successors concurrently,
  // so provisional ids are racy under threads > 1; the merge pass below
  // assigns canonical ids in frontier order, which makes state numbering,
  // the rows, and the first reported error identical to a sequential
  // FIFO exploration regardless of options.threads.
  // One compiled kernel serves every expansion, on every worker.
  PFQL_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledKernel> kernel,
                        q.Compile(initial));

  ConcurrentInterner interner;
  std::vector<size_t> prov_to_canon;  // SIZE_MAX = not yet canonicalized
  std::vector<size_t> canon_to_prov;

  const size_t initial_prov = interner.Intern(initial).first;
  prov_to_canon.assign(interner.size(), SIZE_MAX);
  prov_to_canon[initial_prov] = 0;
  canon_to_prov.push_back(initial_prov);

  // Row s of the chain, successors in canonical ids: the merge pass
  // expands states in canonical order, so each expansion is the next row.
  MarkovChain::Rows rows;

  std::vector<ExpandedState> results;
  size_t wave_begin = 0;
  size_t peak_wave = 0;
  while (wave_begin < canon_to_prov.size()) {
    const size_t wave_end = canon_to_prov.size();
    peak_wave = std::max(peak_wave, wave_end - wave_begin);
    results.assign(wave_end - wave_begin, ExpandedState{});
    waves_counter->Increment();
    trace::Span wave_span("state_space.wave");
    ExpandWave(*kernel, &interner, canon_to_prov, wave_begin, wave_end,
               options, &results);

    // Merge in frontier order: remap provisional ids to dense canonical
    // ids in first-seen order. Pure integer work — all hashing happened in
    // the workers.
    prov_to_canon.resize(interner.size(), SIZE_MAX);
    for (size_t k = 0; k < results.size(); ++k) {
      if (options.cancel != nullptr) {
        PFQL_RETURN_NOT_OK(options.cancel->Check());
      }
      PFQL_RETURN_NOT_OK(results[k].status);
      for (auto& [prov, _] : results[k].successors) {
        size_t to = prov_to_canon[prov];
        if (to == SIZE_MAX) {
          to = canon_to_prov.size();
          if (to + 1 > options.max_states) {
            // The interner count and peak wave width guide budget tuning:
            // a wide peak wave means the next wave multiplies the state
            // count, so a small max_states bump will not help.
            return Status::ResourceExhausted(
                "state space exceeds max_states = " +
                std::to_string(options.max_states) + " (explored " +
                std::to_string(to + 1) + " states; interner holds " +
                std::to_string(interner.size()) +
                " live instances; peak wave width " +
                std::to_string(peak_wave) +
                "; raise max_states or use the sampling path)");
          }
          prov_to_canon[prov] = to;
          canon_to_prov.push_back(prov);
        }
        prov = to;
      }
      rows.push_back(std::move(results[k].successors));
    }
    wave_begin = wave_end;
  }

  // Quiescent point: workers are joined, so the deferred table frees from
  // any stripe grows can drain now instead of riding along in limbo.
  epoch::Collector::Instance().Collect();

  // Materialize the canonical ordering into the StateSpace's public shape:
  // `states` in canonical order, moved out of the interner.
  StateSpace space;
  std::vector<Instance> interned = interner.TakeAll();
  space.states.reserve(canon_to_prov.size());
  for (const size_t prov : canon_to_prov) {
    space.states.push_back(std::move(interned[prov]));
  }

  states_counter->Increment(space.states.size());
  PFQL_ASSIGN_OR_RETURN(space.chain, MarkovChain::FromRows(std::move(rows)));
  return space;
}

}  // namespace pfql
