// Instance interning for wave-parallel state-space exploration, and the
// only interner: BuildStateSpace maps every successor instance to a node
// here. Every expansion worker interns successor instances as it discovers
// them, with no global lock:
//
//   * The table is hash-partitioned into cache-line-padded stripes (mixed
//     bits of an instance's structural hash pick its stripe, so the "same
//     instance from two threads" race is always confined to one stripe). A
//     single-threaded caller asks for one stripe.
//   * Each stripe is an open-addressing array of slots. Inserts take the
//     stripe's spinlock; finds are lock-free — they probe the slot array
//     through acquire loads and never block, even against a concurrent
//     insert or grow in the same stripe.
//   * A stripe that crosses 3/4 load doubles its slot array under its
//     spinlock and publishes the new array with a release store. The
//     outgrown array stays allocated until the interner is destroyed, so
//     lock-free readers still probing it stay safe; outgrown arrays add up
//     to less than the live one. Readers racing a grow see a consistent (if
//     slightly stale) snapshot and linearize before the racing inserts.
//
// Each interned instance lives in a Node that is allocated once and never
// moves, so readers equality-check a probed slot against its node without
// any lock, and callers hold Node pointers for the interner's lifetime.
// Node::id belongs to the caller: BuildStateSpace's single-threaded merge
// writes each new state's canonical number there. Memory model summary
// (also docs/INTERNALS.md §8): Intern and Find are linearizable; size() is
// exact once every Intern call has returned.
#ifndef PFQL_MARKOV_CONCURRENT_INTERNER_H_
#define PFQL_MARKOV_CONCURRENT_INTERNER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "relational/instance.h"

namespace pfql {

class ConcurrentInterner {
 public:
  static constexpr size_t kDefaultStripes = 64;

  struct Node {
    static constexpr size_t kNoId = SIZE_MAX;

    Instance instance;
    /// The caller's number for this instance; kNoId until it writes one.
    /// The interner never reads it.
    size_t id = kNoId;
  };

  /// `stripes` must be a power of two. A single-threaded caller passes 1;
  /// tests pass 1 or 2 to force every operation through the same
  /// grow/contention window.
  explicit ConcurrentInterner(size_t stripes = kDefaultStripes);
  ~ConcurrentInterner();

  ConcurrentInterner(const ConcurrentInterner&) = delete;
  ConcurrentInterner& operator=(const ConcurrentInterner&) = delete;

  /// The node holding `instance`, interning it if new. Returns {node,
  /// inserted}. Safe to call from any number of threads concurrently.
  std::pair<Node*, bool> Intern(Instance instance);

  /// The node holding `instance`, or nullptr. Lock-free: never blocks, even
  /// against concurrent Intern calls or a stripe grow.
  const Node* Find(const Instance& instance) const;

  /// Number of interned instances. Quiescently consistent: exact once all
  /// Intern calls have returned.
  size_t size() const { return inserts_.load(std::memory_order_acquire); }

  /// Total stripe-table doublings so far (tests: proves the grow path ran).
  size_t grow_count() const {
    return grows_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kInitialSlotsPerStripe = 16;  // power of two

  /// One slot: `node` is null while empty; a node is published with
  /// release after its mixed hash is stored and the node is fully
  /// constructed, so an acquire read of it licenses the hash read and the
  /// node access.
  struct Slot {
    std::atomic<size_t> hash{0};
    std::atomic<Node*> node{nullptr};
  };

  struct Table {
    explicit Table(size_t n) : mask(n - 1), slots(new Slot[n]) {}
    size_t mask;
    std::unique_ptr<Slot[]> slots;
    /// The array this one replaced, kept for readers still probing it.
    std::unique_ptr<Table> outgrown;
  };

  struct alignas(64) Stripe {
    std::atomic<Table*> table{nullptr};  // owned
    std::atomic_flag lock = ATOMIC_FLAG_INIT;
    size_t size = 0;  // occupied slots; guarded by `lock`
  };

  /// The stripe of a mixed hash (concurrent_interner.cc): its high bits,
  /// while the slot index reads its low ones.
  Stripe& StripeFor(size_t mixed) const {
    return stripes_[(mixed >> 32) & stripe_mask_];
  }
  /// Probes `table` for (mixed hash, instance); nullptr if absent.
  /// Lock-free.
  static Node* Probe(const Table& table, size_t hash,
                     const Instance& instance);
  /// Doubles `stripe`'s table; caller holds the stripe lock.
  void Grow(Stripe* stripe);

  const size_t stripe_mask_;
  std::unique_ptr<Stripe[]> stripes_;

  // Local tallies flushed to the pfql_interner_* metrics on destruction, so
  // the hot path never touches the registry. `inserts_` is also size().
  std::atomic<uint64_t> inserts_{0};
  std::atomic<uint64_t> dedup_hits_{0};
  std::atomic<uint64_t> grows_{0};
};

}  // namespace pfql

#endif  // PFQL_MARKOV_CONCURRENT_INTERNER_H_
