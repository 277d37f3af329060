// Property test for the instance interner's Grow path: a long randomized
// insert/find mix that crosses several table doublings (16 → 2048+ slots)
// must keep every node where it was first handed out and agree with a
// std::map oracle at every step. One stripe and one thread, so every
// operation goes through the same table. Runs multiple seeds so
// slot-cluster shapes vary.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>

#include "markov/concurrent_interner.h"
#include "relational/instance.h"
#include "util/random.h"

namespace pfql {
namespace {

Instance KeyInstance(uint64_t k) {
  Instance db;
  Relation r(Schema({"a", "b"}));
  r.Insert(Tuple{Value(static_cast<int64_t>(k)),
                 Value(static_cast<int64_t>(k * 31 + 7))});
  db.Set("t", std::move(r));
  return db;
}

TEST(InstanceInternerGrowPropertyTest, RandomMixAgreesWithMapOracle) {
  // The stripe starts at 16 slots and doubles at 3/4 load: 1500 distinct
  // keys force at least five Grow calls.
  constexpr uint64_t kUniverse = 1500;
  constexpr size_t kOps = 20000;
  for (const uint64_t seed : {1ull, 7ull, 20260808ull}) {
    ConcurrentInterner interner(/*stripes=*/1);
    std::map<uint64_t, const ConcurrentInterner::Node*> oracle;  // key -> node

    Rng rng(seed);
    for (size_t i = 0; i < kOps; ++i) {
      const uint64_t key = rng.NextIndex(kUniverse);
      const Instance instance = KeyInstance(key);
      auto it = oracle.find(key);
      if (rng.NextBernoulli(0.7)) {
        const auto [node, inserted] = interner.Intern(instance);
        ASSERT_NE(node, nullptr);
        if (it == oracle.end()) {
          // New key: inserted into a fresh node, stable from now on.
          ASSERT_TRUE(inserted) << "seed " << seed << " op " << i;
          ASSERT_EQ(node->instance, instance);
          oracle.emplace(key, node);
        } else {
          ASSERT_FALSE(inserted) << "seed " << seed << " op " << i;
          ASSERT_EQ(node, it->second) << "node moved across Grow";
        }
      } else {
        const ConcurrentInterner::Node* node = interner.Find(instance);
        if (it == oracle.end()) {
          ASSERT_EQ(node, nullptr) << "Find invented key " << key;
        } else {
          ASSERT_EQ(node, it->second) << "Find disagrees with oracle";
        }
      }
      ASSERT_EQ(interner.size(), oracle.size());
    }

    // Complete the universe (dedup on already-present keys), then sweep:
    // after the final doubling every node still round-trips.
    for (uint64_t key = 0; key < kUniverse; ++key) {
      auto it = oracle.find(key);
      const auto [node, inserted] = interner.Intern(KeyInstance(key));
      ASSERT_EQ(inserted, it == oracle.end());
      if (it != oracle.end()) {
        ASSERT_EQ(node, it->second);
      } else {
        oracle.emplace(key, node);
      }
    }
    ASSERT_EQ(oracle.size(), kUniverse);
    ASSERT_EQ(interner.size(), kUniverse);
    EXPECT_GE(interner.grow_count(), 5u);
    for (const auto& [key, node] : oracle) {
      ASSERT_EQ(interner.Find(KeyInstance(key)), node);
      ASSERT_EQ(node->instance, KeyInstance(key));
      ASSERT_EQ(node->id, ConcurrentInterner::Node::kNoId)
          << "the interner wrote a caller's id";
    }
  }
}

}  // namespace
}  // namespace pfql
