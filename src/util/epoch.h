// Epoch-based memory reclamation (EBR) for the lock-free read path of the
// sharded server/result_cache.h. The problem it solves: a reader walking a
// bucket chain without a lock may hold a raw pointer to a node that a
// concurrent writer just unlinked — the writer must not free that memory
// until every such reader is provably gone.
//
// Protocol (classic three-epoch EBR, Fraser-style):
//   * Readers wrap every lock-free read section in an epoch::Guard. Pinning
//     is two uncontended seq_cst atomic ops on a thread-local record — no
//     shared writes, no locks, so guards are cheap and scale.
//   * Writers unlink a node from the structure first (so no new reader can
//     find it), then hand it to Retire(). Retire tags the garbage with the
//     current global epoch.
//   * The global epoch may advance only when every pinned thread has been
//     observed in the current epoch (or idle). Garbage tagged e is freed
//     once the global epoch reaches e + 2: by then, any reader that could
//     possibly have seen the node has unpinned at least once, and the
//     advance predicate's acquire read of its record establishes the
//     happens-before edge that makes the free race-free (TSan-verifiable).
//
// Epoch tags are assigned under the same mutex that serializes epoch
// advances, which is what makes the "+2" bound sound: a tag can never lag
// the true epoch by more than the advance it is racing with.
//
// Guards may nest. Retire is mutex-protected but off the hot path (it runs
// only on eviction, replacement, and clearing). A thread that exits
// returns its record to a free list, so thread churn does not leak records.
#ifndef PFQL_UTIL_EPOCH_H_
#define PFQL_UTIL_EPOCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

namespace pfql {
namespace epoch {

/// Process-wide collector. All structures share one epoch domain: a reader
/// pinned for structure A also delays reclamation for structure B, which is
/// harmless (guards are short) and keeps the per-thread state to one record.
class Collector {
 public:
  static Collector& Instance();

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  /// Hands `p` to the collector for deferred deletion via `deleter(p)`.
  /// The caller must already have unlinked `p` from every lock-free-readable
  /// location. Triggers an amortized collection attempt.
  void Retire(void* p, void (*deleter)(void*));

  /// Attempts to advance the epoch and free eligible garbage. Returns the
  /// number of items freed. Called automatically by Retire; exposed for
  /// tests and for quiescent points (end of a state-space build).
  size_t Collect();

  /// Current global epoch (tests).
  uint64_t CurrentEpoch() const {
    return global_.load(std::memory_order_seq_cst);
  }
  /// Items retired but not yet freed (tests; approximate under concurrency).
  size_t PendingCount() const;

 private:
  friend class Guard;

  /// kIdle marks a thread with no active guard. Real epochs start at 1.
  static constexpr uint64_t kIdle = 0;
  /// Collection is attempted once per this many retirements.
  static constexpr size_t kCollectEvery = 64;

  struct alignas(64) ThreadRecord {
    std::atomic<uint64_t> epoch{kIdle};
    std::atomic<bool> in_use{false};
    uint32_t nest = 0;  // guard nesting depth; touched only by the owner
  };

  struct Garbage {
    uint64_t epoch;
    void* ptr;
    void (*deleter)(void*);
  };

  Collector() = default;
  ~Collector() = default;  // never runs: leaked singleton

  ThreadRecord* AcquireRecord();
  void ReleaseRecord(ThreadRecord* record);
  static ThreadRecord* LocalRecord();
  size_t CollectLocked();

  std::atomic<uint64_t> global_{1};

  mutable std::mutex mu_;  // guards records_ membership, limbo_, advances
  std::vector<std::unique_ptr<ThreadRecord>> records_;
  std::deque<Garbage> limbo_;
  size_t retired_since_collect_ = 0;
};

/// RAII pin: while alive, no memory retired at or after the pin can be
/// freed, so raw pointers read from epoch-protected structures stay valid.
class Guard {
 public:
  Guard();
  ~Guard();
  Guard(const Guard&) = delete;
  Guard& operator=(const Guard&) = delete;

 private:
  Collector::ThreadRecord* record_;
};

/// Convenience: retire an object allocated with `new T`.
template <typename T>
void RetireObject(T* p) {
  Collector::Instance().Retire(
      p, [](void* q) { delete static_cast<T*>(q); });
}

/// Convenience: retire an array allocated with `new T[n]`.
template <typename T>
void RetireArray(T* p) {
  Collector::Instance().Retire(
      p, [](void* q) { delete[] static_cast<T*>(q); });
}

}  // namespace epoch
}  // namespace pfql

#endif  // PFQL_UTIL_EPOCH_H_
