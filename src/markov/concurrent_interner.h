// Instance interning for wave-parallel state-space exploration, and the
// only interner: BuildStateSpace maps every successor instance to a dense
// id here. Every expansion worker interns successor instances as it
// discovers them, with no global lock:
//
//   * The table is hash-partitioned into cache-line-padded stripes (an
//     instance's structural hash picks its stripe, so the "same instance
//     from two threads" race is always confined to one stripe).
//   * Each stripe is an open-addressing array of slots. Inserts take the
//     stripe's spinlock; finds are lock-free — they probe the slot array
//     through acquire loads and never block, even against a concurrent
//     insert or grow in the same stripe.
//   * A stripe that crosses 3/4 load doubles its slot array under its
//     spinlock and publishes the new array with a release store; the old
//     array is handed to the epoch collector (util/epoch.h), so lock-free
//     readers still probing it stay safe. This is the epoch-protected grow
//     path: readers racing a grow see a consistent (if slightly stale)
//     snapshot and linearize before the racing inserts.
//
// Ids are claimed from one atomic counter, so they are dense (0..n-1) and
// stable for the interner's lifetime, but their order is racy under
// concurrency. BuildStateSpace restores its
// deterministic first-seen-in-merge-order numbering with an integer remap
// (state_space.cc); standalone users that need deterministic ids must
// intern from one thread.
//
// Interned instances live in a chunked store with a fixed chunk directory:
// an id's address never moves, so readers can equality-check a probed slot
// against a stable Instance& without any lock. Memory model summary (also
// docs/INTERNALS.md §8): Intern and Find are linearizable; size() is
// quiescently consistent (it may briefly exceed the number of ids visible
// through any slot).
#ifndef PFQL_MARKOV_CONCURRENT_INTERNER_H_
#define PFQL_MARKOV_CONCURRENT_INTERNER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "relational/instance.h"

namespace pfql {

class ConcurrentInterner {
 public:
  static constexpr size_t kNotFound = SIZE_MAX;

  /// `stripes` must be a power of two (default 64). Tests pass 1 or 2 to
  /// force every operation through the same grow/contention window.
  explicit ConcurrentInterner(size_t stripes = kDefaultStripes);
  ~ConcurrentInterner();

  ConcurrentInterner(const ConcurrentInterner&) = delete;
  ConcurrentInterner& operator=(const ConcurrentInterner&) = delete;

  /// Dense id of `instance`, interning it if new. Returns {id, inserted}.
  /// Safe to call from any number of threads concurrently.
  std::pair<size_t, bool> Intern(Instance instance);

  /// Id of `instance`, or kNotFound. Lock-free: never blocks, even against
  /// concurrent Intern calls or a stripe grow.
  size_t Find(const Instance& instance) const;

  /// The instance holding `id`. `id` must have been returned by Intern or
  /// Find (ids observed through those calls are always fully published).
  const Instance& At(size_t id) const;

  /// Number of interned instances. Quiescently consistent: exact once all
  /// Intern calls have returned.
  size_t size() const { return count_.load(std::memory_order_acquire); }
  bool empty() const { return size() == 0; }

  size_t stripe_count() const { return stripe_mask_ + 1; }
  /// Total stripe-table doublings so far (tests: proves the grow path ran).
  size_t grow_count() const {
    return grows_.load(std::memory_order_relaxed);
  }

  /// Moves all interned instances out in id order, leaving the interner
  /// empty. Caller must be quiesced (no concurrent Intern/Find).
  std::vector<Instance> TakeAll();

 private:
  static constexpr size_t kDefaultStripes = 64;
  static constexpr size_t kInitialSlotsPerStripe = 16;  // power of two
  static constexpr size_t kChunkBits = 9;               // 512 instances
  static constexpr size_t kChunkSize = size_t{1} << kChunkBits;
  static constexpr size_t kMaxChunks = 1 << 13;  // 4M instances

  /// One slot: `id_plus_one` is 0 while empty; a non-zero value is
  /// published with release after the instance is fully stored, so an
  /// acquire read of it licenses the hash read and the At() access.
  struct Slot {
    std::atomic<size_t> hash{0};
    std::atomic<size_t> id_plus_one{0};
  };

  struct Table {
    explicit Table(size_t n) : mask(n - 1), slots(new Slot[n]) {}
    size_t mask;
    Slot* slots;  // owned; freed by the epoch collector or the destructor
  };

  struct alignas(64) Stripe {
    std::atomic<Table*> table{nullptr};
    std::atomic_flag lock = ATOMIC_FLAG_INIT;
    size_t size = 0;  // occupied slots; guarded by `lock`
  };

  Stripe& StripeFor(size_t hash) const {
    return stripes_[(hash >> 32) & stripe_mask_];
  }
  /// Probes `table` for (hash, instance); kNotFound if absent. Lock-free.
  size_t Probe(const Table& table, size_t hash,
               const Instance& instance) const;
  /// Doubles `stripe`'s table; caller holds the stripe lock.
  void Grow(Stripe* stripe);
  /// Stores `instance` at `id` in the chunked store.
  void Store(size_t id, Instance&& instance);

  const size_t stripe_mask_;
  mutable std::unique_ptr<Stripe[]> stripes_;
  std::atomic<size_t> count_{0};
  std::unique_ptr<std::atomic<Instance*>[]> chunks_;

  // Local tallies flushed to the pfql_interner_* metrics on destruction, so
  // the hot path never touches the registry.
  std::atomic<uint64_t> inserts_{0};
  std::atomic<uint64_t> dedup_hits_{0};
  std::atomic<uint64_t> grows_{0};
};

}  // namespace pfql

#endif  // PFQL_MARKOV_CONCURRENT_INTERNER_H_
