// Property test for the instance interner's Grow path: a long randomized
// insert/find mix that crosses several table doublings (16 → 2048+ slots)
// must keep ids dense and stable and agree with a std::map oracle at every
// step. One stripe and one thread, so every operation goes through the same
// table and ids come out in first-seen order. Runs multiple seeds so
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
    std::map<uint64_t, size_t> oracle;  // key -> id

    Rng rng(seed);
    for (size_t i = 0; i < kOps; ++i) {
      const uint64_t key = rng.NextIndex(kUniverse);
      const Instance instance = KeyInstance(key);
      auto it = oracle.find(key);
      if (rng.NextBernoulli(0.7)) {
        const auto [id, inserted] = interner.Intern(instance);
        if (it == oracle.end()) {
          // New key: inserted, with the next dense id, stable from now on.
          ASSERT_TRUE(inserted) << "seed " << seed << " op " << i;
          ASSERT_EQ(id, oracle.size()) << "ids must stay dense";
          oracle.emplace(key, id);
        } else {
          ASSERT_FALSE(inserted) << "seed " << seed << " op " << i;
          ASSERT_EQ(id, it->second) << "id changed across Grow";
        }
      } else {
        const size_t id = interner.Find(instance);
        if (it == oracle.end()) {
          ASSERT_EQ(id, ConcurrentInterner::kNotFound)
              << "Find invented key " << key;
        } else {
          ASSERT_EQ(id, it->second) << "Find disagrees with oracle";
        }
      }
      ASSERT_EQ(interner.size(), oracle.size());
    }

    // Complete the universe (dedup on already-present keys), then sweep:
    // after the final doubling every id still round-trips.
    for (uint64_t key = 0; key < kUniverse; ++key) {
      const bool known = oracle.count(key) > 0;
      const auto [id, inserted] = interner.Intern(KeyInstance(key));
      ASSERT_EQ(inserted, !known);
      if (known) {
        ASSERT_EQ(id, oracle[key]);
      } else {
        ASSERT_EQ(id, oracle.size());
        oracle.emplace(key, id);
      }
    }
    ASSERT_EQ(oracle.size(), kUniverse);
    EXPECT_GE(interner.grow_count(), 5u);
    for (const auto& [key, id] : oracle) {
      ASSERT_EQ(interner.Find(KeyInstance(key)), id);
      ASSERT_EQ(interner.At(id), KeyInstance(key));
    }
  }
}

}  // namespace
}  // namespace pfql
