// Compiled chain tier: freezes the exact chain of a BuildStateSpace result
// into a compact numeric kernel so that one random-walk step is a handful
// of array reads instead of a datalog interpretation. The layout is the
// exact chain's own CSR with fixed-point uint16 probabilities (0..
// kProbScale, largest-remainder rounded so every row sums exactly to
// kProbScale) plus per-row Walker alias tables for O(1) sampling. State ids
// are the state ids of the source StateSpace, so compiled results decode
// back through `CompiledSpace::states`. Quantization error is bounded by
// 1/kProbScale per transition entry (docs/INTERNALS.md §7 propagates the
// bound).
#ifndef PFQL_MARKOV_COMPILED_CHAIN_H_
#define PFQL_MARKOV_COMPILED_CHAIN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "markov/state_space.h"
#include "util/cancellation.h"
#include "util/random.h"
#include "util/status.h"

namespace pfql {

/// A frozen Markov chain: CSR rows of quantized transitions with alias
/// tables. Immutable after Compile; safe to share across threads.
class CompiledChain {
 public:
  /// Fixed-point probability scale: entry probabilities are prob_q/65535
  /// and every row's prob_q entries sum to exactly 65535.
  static constexpr uint32_t kProbScale = 65535;

  /// Quantizes an exact chain row by row, entry e of the chain's CSR
  /// becoming entry e here. The chain is stochastic by construction
  /// (MarkovChain::FromRows), so nothing is validated again.
  static StatusOr<CompiledChain> Compile(const MarkovChain& chain);

  size_t num_states() const { return row_offsets_.size() - 1; }
  size_t num_edges() const { return col_.size(); }

  // ---- Row access (tests, cross-checks, and the stationary solver) ----
  uint32_t RowBegin(size_t state) const { return row_offsets_[state]; }
  uint32_t RowEnd(size_t state) const { return row_offsets_[state + 1]; }
  /// Successor state of CSR entry `e`.
  uint32_t Col(size_t e) const { return col_[e]; }
  /// Quantized probability of CSR entry `e` (prob_q/kProbScale).
  uint16_t ProbQ(size_t e) const { return prob_q_[e]; }
  /// Alias threshold of slot `e` within its row, in [0, kProbScale].
  uint16_t AliasCut(size_t e) const { return alias_cut_[e]; }
  /// Pre-resolved successor taken when the draw lands above the cut.
  uint32_t AliasState(size_t e) const { return alias_state_[e]; }

  /// One alias-method step: a single bounded uniform draw, two array
  /// reads, a compare. Exact over the quantized probabilities: successor
  /// of entry e is chosen with probability exactly ProbQ(e)/kProbScale.
  uint32_t Step(uint32_t state, Rng* rng) const {
    const uint32_t begin = row_offsets_[state];
    const uint32_t k = row_offsets_[state + 1] - begin;
    const uint64_t v = rng->NextIndex(static_cast<uint64_t>(k) * kProbScale);
    const uint32_t e = begin + static_cast<uint32_t>(v / kProbScale);
    const uint32_t t = static_cast<uint32_t>(v % kProbScale);
    return t < alias_cut_[e] ? col_[e] : alias_state_[e];
  }

  /// Advances every walker `steps` steps in waves (all walkers one step,
  /// then the next step). Draws are consumed walker-major within a wave.
  /// Cancellation is polled once per wave, never per draw, so deadlines
  /// still interrupt million-step walks without touching the hot loop.
  Status StepBatch(std::vector<uint32_t>* walkers, size_t steps, Rng* rng,
                   const CancellationToken* cancel = nullptr) const;

  /// Power-iteration stationary distribution on the lazy chain (P+I)/2
  /// over the quantized CSR rows: the one iterative stationary solver,
  /// cross-checked against MarkovChain's Gaussian elimination (valid for
  /// irreducible chains, periodic ones too).
  struct StationaryResult {
    std::vector<double> pi;
    size_t iterations = 0;
    /// Final total-variation distance between successive iterates.
    double residual = 0.0;
  };
  /// ResourceExhausted (reporting the residual) when the tolerance is not
  /// reached within max_iters.
  StatusOr<StationaryResult> Stationary(size_t max_iters,
                                        double tolerance) const;

 private:
  CompiledChain() = default;

  std::vector<uint32_t> row_offsets_;  // num_states + 1
  std::vector<uint32_t> col_;          // per CSR entry: primary successor
  std::vector<uint16_t> prob_q_;       // per entry: quantized probability
  std::vector<uint16_t> alias_cut_;    // per slot: threshold in [0, 65535]
  std::vector<uint32_t> alias_state_;  // per slot: successor above the cut
};

/// What the compiled tier's walkers read: the quantized chain, and the
/// states it was frozen from, so callers can evaluate events on states and
/// decode state ids back to instances. The exact chain is not kept.
struct CompiledSpace {
  std::vector<Instance> states;
  CompiledChain chain;
};

/// Budget and plumbing for GetOrCompile. The default budget is smaller
/// than StateSpaceOptions::max_states: the compiled tier targets chains
/// that enumerate quickly and then get stepped millions of times.
struct CompileOptions {
  size_t max_states = 1 << 12;
  /// Worker threads for the state-space BFS.
  size_t threads = 1;
  const CancellationToken* cancel = nullptr;
};

/// Fingerprint of (kernel, initial instance, state budget): the front-door
/// memo key answered before any state-space work happens.
uint64_t KernelFingerprint(const Interpretation& kernel,
                           const Instance& initial, size_t max_states);

/// Process-wide memo cache for compiled chains, keyed by kernel
/// fingerprint. Bounded LRU; entries are immutable shared_ptrs, safe to
/// hold across evictions.
class CompiledChainCache {
 public:
  static constexpr size_t kCapacity = 32;

  static CompiledChainCache& Instance();

  std::shared_ptr<const CompiledSpace> FindByFingerprint(uint64_t fp);
  /// Inserts an entry under `fp`; an entry already there is kept.
  void Insert(uint64_t fp, std::shared_ptr<const CompiledSpace> entry);
  void Clear();

  struct Stats {
    uint64_t fingerprint_hits = 0;
    uint64_t misses = 0;
    size_t entries = 0;
  };
  Stats GetStats();

 private:
  CompiledChainCache() = default;

  struct Impl;
  Impl& impl();
};

/// The compiled tier's front door: memo lookup, state-space build, chain
/// compile, memo insert — with compile.* metrics and a "compile" trace
/// span. Budget overruns surface as ResourceExhausted (callers running
/// backend=auto fall back to the interpreted tier on exactly that code).
StatusOr<std::shared_ptr<const CompiledSpace>> GetOrCompile(
    const Interpretation& kernel, const Instance& initial,
    const CompileOptions& options = {});

}  // namespace pfql

#endif  // PFQL_MARKOV_COMPILED_CHAIN_H_
