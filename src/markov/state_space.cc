#include "markov/state_space.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>

#include "markov/concurrent_interner.h"
#include "util/fault_injection.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace pfql {

namespace {

using Node = ConcurrentInterner::Node;

// One expanded frontier state: its row, with every successor instance
// already interned (moved into the shared concurrent interner). Until the
// merge numbers it, a row entry holds its successor's node address rather
// than a second vector of nodes: one allocation per state, not two. Workers
// do the instance hashing, equality probing, and deduplication in
// parallel; the sequential merge pass that follows only numbers the nodes
// it has not seen and writes their numbers into the row.
struct ExpandedState {
  Status status = Status::OK();
  std::vector<std::pair<size_t, BigRational>> row;
};
static_assert(sizeof(uintptr_t) <= sizeof(size_t));

// Expands every state in [wave_begin, wave_end) of `states`, writing the
// result for state (wave_begin + k) into (*results)[k]. With
// options.threads > 1 the frontier indices are claimed from an atomic
// counter by worker threads; each worker writes a slot no other worker
// touches, and interns successors through `interner`, whose striped table
// is the only shared write target (per-stripe spinlocks, no global lock —
// see concurrent_interner.h).
void ExpandWave(const CompiledKernel& q, ConcurrentInterner* interner,
                const std::vector<Node*>& states, size_t wave_begin,
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
    StatusOr<Distribution<Instance>> successors =
        q.Exact(states[wave_begin + k]->instance, options.eval);
    if (!successors.ok()) {
      out.status = successors.status();
      return;
    }
    out.row.reserve(successors.value().outcomes().size());
    for (auto& outcome : successors.value().MutableOutcomes()) {
      // Interning here (worker thread) does the hash + equality work in
      // parallel; duplicates across workers resolve inside one stripe.
      Node* node = interner->Intern(std::move(outcome.value)).first;
      out.row.emplace_back(reinterpret_cast<uintptr_t>(node),
                           std::move(outcome.probability));
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

  // Wave BFS. Workers intern successors concurrently, in racy order; the
  // merge pass below numbers new states in frontier order, which makes
  // state numbering, the rows, and the first reported error identical to
  // a sequential FIFO exploration regardless of options.threads.
  // One compiled kernel serves every expansion, on every worker.
  PFQL_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledKernel> kernel,
                        q.Compile(initial));

  // A single-threaded build has no stripe contention to spread.
  ConcurrentInterner interner(
      options.threads > 1 ? ConcurrentInterner::kDefaultStripes : 1);
  // states[s] is the node of state s, and states[s]->id == s.
  std::vector<Node*> states;
  states.push_back(interner.Intern(initial).first);
  states[0]->id = 0;

  // Row s of the chain: the merge pass expands states in order, so each
  // expansion is the next row.
  MarkovChain::Rows rows;

  std::vector<ExpandedState> results;
  size_t wave_begin = 0;
  size_t peak_wave = 0;
  while (wave_begin < states.size()) {
    const size_t wave_end = states.size();
    peak_wave = std::max(peak_wave, wave_end - wave_begin);
    results.assign(wave_end - wave_begin, ExpandedState{});
    waves_counter->Increment();
    trace::Span wave_span("state_space.wave");
    ExpandWave(*kernel, &interner, states, wave_begin, wave_end, options,
               &results);

    // Merge in frontier order: number each node the first time a row
    // lists it. Pure pointer and integer work — all hashing happened in
    // the workers.
    for (ExpandedState& result : results) {
      if (options.cancel != nullptr) {
        PFQL_RETURN_NOT_OK(options.cancel->Check());
      }
      PFQL_RETURN_NOT_OK(result.status);
      for (auto& [successor, p] : result.row) {
        Node* node = reinterpret_cast<Node*>(successor);
        if (node->id == Node::kNoId) {
          if (states.size() + 1 > options.max_states) {
            // The interner count and peak wave width guide budget tuning:
            // a wide peak wave means the next wave multiplies the state
            // count, so a small max_states bump will not help.
            return Status::ResourceExhausted(
                "state space exceeds max_states = " +
                std::to_string(options.max_states) + " (explored " +
                std::to_string(states.size() + 1) +
                " states; interner holds " + std::to_string(interner.size()) +
                " live instances; peak wave width " +
                std::to_string(peak_wave) +
                "; raise max_states or use the sampling path)");
          }
          node->id = states.size();
          states.push_back(node);
        }
        successor = node->id;
      }
      rows.push_back(std::move(result.row));
    }
    wave_begin = wave_end;
  }

  StateSpace space;
  space.states.reserve(states.size());
  for (Node* node : states) {
    space.states.push_back(std::move(node->instance));
  }

  states_counter->Increment(space.states.size());
  PFQL_ASSIGN_OR_RETURN(space.chain, MarkovChain::FromRows(std::move(rows)));
  return space;
}

}  // namespace pfql
