#include "markov/concurrent_interner.h"

#include <cassert>
#include <thread>

#include "util/metrics.h"

namespace pfql {

namespace {

// Spin with progressively gentler backoff. Stripe critical sections are a
// handful of probes, so contention windows are tiny; yielding keeps the
// oversubscribed (threads > cores) case from burning a scheduling quantum.
class SpinLockGuard {
 public:
  explicit SpinLockGuard(std::atomic_flag* flag) : flag_(flag) {
    int spins = 0;
    while (flag_->test_and_set(std::memory_order_acquire)) {
      if (++spins > 64) {
        std::this_thread::yield();
      }
    }
  }
  ~SpinLockGuard() { flag_->clear(std::memory_order_release); }

 private:
  std::atomic_flag* flag_;
};

// Instance::Hash() varies mostly in its low bits, and near-equal instances
// get near-equal hashes, which linear probing turns into long runs. Slots
// and stripes index by this multiplicative mix of it instead (the murmur3
// finalizer), which spreads every input bit over the whole word.
size_t Mix(size_t hash) {
  hash ^= hash >> 33;
  hash *= 0xff51afd7ed558ccdULL;
  hash ^= hash >> 33;
  hash *= 0xc4ceb9fe1a85ec53ULL;
  return hash ^ (hash >> 33);
}

}  // namespace

ConcurrentInterner::ConcurrentInterner(size_t stripes)
    : stripe_mask_(stripes - 1), stripes_(new Stripe[stripes]) {
  assert(stripes > 0 && (stripes & (stripes - 1)) == 0 &&
         "stripe count must be a power of two");
  for (size_t s = 0; s < stripes; ++s) {
    stripes_[s].table.store(new Table(kInitialSlotsPerStripe),
                            std::memory_order_relaxed);
  }
}

ConcurrentInterner::~ConcurrentInterner() {
  for (size_t s = 0; s <= stripe_mask_; ++s) {
    // The live table holds every node of its stripe exactly once; its
    // destructor frees the outgrown tables behind it.
    std::unique_ptr<Table> table(
        stripes_[s].table.load(std::memory_order_relaxed));
    for (size_t i = 0; i <= table->mask; ++i) {
      delete table->slots[i].node.load(std::memory_order_relaxed);
    }
  }
  auto& registry = metrics::MetricRegistry::Instance();
  const uint64_t inserts = inserts_.load(std::memory_order_relaxed);
  const uint64_t hits = dedup_hits_.load(std::memory_order_relaxed);
  const uint64_t grows = grows_.load(std::memory_order_relaxed);
  if (inserts > 0) {
    registry.GetCounter("pfql_interner_inserts_total")->Increment(inserts);
  }
  if (hits > 0) {
    registry.GetCounter("pfql_interner_dedup_hits_total")->Increment(hits);
  }
  if (grows > 0) {
    registry.GetCounter("pfql_interner_grows_total")->Increment(grows);
  }
}

ConcurrentInterner::Node* ConcurrentInterner::Probe(const Table& table,
                                                    size_t hash,
                                                    const Instance& instance) {
  size_t i = hash & table.mask;
  for (;;) {
    const Slot& slot = table.slots[i];
    Node* node = slot.node.load(std::memory_order_acquire);
    if (node == nullptr) return nullptr;  // empty slot ends the probe
    if (slot.hash.load(std::memory_order_relaxed) == hash &&
        node->instance == instance) {
      return node;
    }
    i = (i + 1) & table.mask;
  }
}

const ConcurrentInterner::Node* ConcurrentInterner::Find(
    const Instance& instance) const {
  const size_t hash = Mix(instance.Hash());
  const Table* table = StripeFor(hash).table.load(std::memory_order_acquire);
  return Probe(*table, hash, instance);
}

std::pair<ConcurrentInterner::Node*, bool> ConcurrentInterner::Intern(
    Instance instance) {
  const size_t hash = Mix(instance.Hash());
  Stripe& stripe = StripeFor(hash);

  // Optimistic lock-free pre-check: the common case in a BFS wave is a
  // duplicate successor, which never needs the stripe lock at all.
  if (Node* found = Probe(*stripe.table.load(std::memory_order_acquire),
                          hash, instance)) {
    dedup_hits_.fetch_add(1, std::memory_order_relaxed);
    return {found, false};
  }

  SpinLockGuard lock(&stripe.lock);
  // Re-probe under the lock: a racing Intern of the same instance may have
  // won. Same-instance races always land on this stripe (hash-partitioned),
  // so the lock fully serializes them.
  Table* table = stripe.table.load(std::memory_order_relaxed);
  if (Node* found = Probe(*table, hash, instance)) {
    dedup_hits_.fetch_add(1, std::memory_order_relaxed);
    return {found, false};
  }

  // Keep the stripe under 3/4 load so probe chains stay short.
  if ((stripe.size + 1) * 4 > (table->mask + 1) * 3) {
    Grow(&stripe);
    table = stripe.table.load(std::memory_order_relaxed);
  }

  Node* node = new Node{std::move(instance)};
  size_t i = hash & table->mask;
  while (table->slots[i].node.load(std::memory_order_relaxed) != nullptr) {
    i = (i + 1) & table->mask;
  }
  table->slots[i].hash.store(hash, std::memory_order_relaxed);
  // Release-publish after the node is constructed: any reader that
  // acquires this pointer sees the whole instance and the slot's hash.
  table->slots[i].node.store(node, std::memory_order_release);
  ++stripe.size;
  inserts_.fetch_add(1, std::memory_order_release);
  return {node, true};
}

void ConcurrentInterner::Grow(Stripe* stripe) {
  Table* old_table = stripe->table.load(std::memory_order_relaxed);
  auto new_table = std::make_unique<Table>((old_table->mask + 1) * 2);
  // Only the lock holder writes slots, so plain-order reads of the old
  // table are stable here; published nodes are re-inserted by stored hash.
  for (size_t i = 0; i <= old_table->mask; ++i) {
    Node* node = old_table->slots[i].node.load(std::memory_order_relaxed);
    if (node == nullptr) continue;
    const size_t hash =
        old_table->slots[i].hash.load(std::memory_order_relaxed);
    size_t j = hash & new_table->mask;
    while (new_table->slots[j].node.load(std::memory_order_relaxed) !=
           nullptr) {
      j = (j + 1) & new_table->mask;
    }
    new_table->slots[j].hash.store(hash, std::memory_order_relaxed);
    new_table->slots[j].node.store(node, std::memory_order_relaxed);
  }
  // Readers may still be probing the old table: it stays allocated, owned
  // by its replacement, until the interner is destroyed.
  new_table->outgrown.reset(old_table);
  stripe->table.store(new_table.release(), std::memory_order_release);
  grows_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace pfql
