// Instances hold their relations through shared pointers: copies share
// storage, and every update replaces a relation instead of writing into it
// (docs/INTERNALS.md §12). These cases pin the value semantics that sharing
// must keep.
#include "relational/instance.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace pfql {
namespace {

Relation MakeRel(std::vector<int64_t> xs) {
  Relation r(Schema({"x"}));
  for (int64_t x : xs) r.Insert(Tuple{Value(x)});
  return r;
}

// An instance equal to `instance` that shares none of its relations.
Instance DeepCopy(const Instance& instance) {
  Instance out;
  for (const auto& [name, rel] : instance.relations()) {
    out.Set(name, Relation(*rel));
  }
  return out;
}

TEST(InstanceSharingTest, RelationsStayInNameOrder) {
  Instance db;
  db.Set("s", MakeRel({1}));
  db.Set("__delta_s", MakeRel({}));
  db.Set("r", MakeRel({2}));
  db.Set("s", std::make_shared<Relation>(MakeRel({3})));
  std::vector<std::string> names;
  for (const auto& [name, _] : db.relations()) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"__delta_s", "r", "s"}));
  EXPECT_EQ(db.Find("s")->tuples(), MakeRel({3}).tuples());
}

TEST(InstanceSharingTest, ACopyIsIndependent) {
  Instance original;
  original.Set("r", MakeRel({1, 2}));
  original.Set("s", MakeRel({5}));
  const size_t hash = original.Hash();
  const std::string text = original.ToString();

  // Set on the copy, both overloads, leaves the original as it was.
  Instance copy = original;
  EXPECT_EQ(copy.Find("r"), original.Find("r"));  // shared, not copied
  copy.Set("r", MakeRel({3}));
  copy.Set("s", std::make_shared<Relation>(MakeRel({7})));
  copy.Set("t", MakeRel({9}));
  EXPECT_EQ(original.Hash(), hash);
  EXPECT_EQ(original.ToString(), text);
  EXPECT_EQ(original.Find("r")->tuples(), MakeRel({1, 2}).tuples());
  EXPECT_EQ(original.Find("t"), nullptr);
  EXPECT_EQ(copy.Find("r")->tuples(), MakeRel({3}).tuples());
  EXPECT_NE(copy.Hash(), hash);

  // And Set on the original leaves a copy as it was.
  Instance kept = original;
  original.Set("r", MakeRel({4}));
  original.Set("s", copy.FindShared("s"));
  EXPECT_EQ(kept.Hash(), hash);
  EXPECT_EQ(kept.ToString(), text);
  EXPECT_EQ(original.Find("s"), copy.Find("s"));
}

TEST(InstanceSharingTest, SetReusesOnlyStorageNoOtherInstanceHolds) {
  Instance walk;
  walk.Set("r", MakeRel({1}));
  const Relation* block = walk.Find("r");
  walk.Hash();
  walk.Set("r", MakeRel({2}));  // the only holder: stepped in place
  EXPECT_EQ(walk.Find("r"), block);
  Instance expected;
  expected.Set("r", MakeRel({2}));
  EXPECT_EQ(walk.Hash(), expected.Hash());
  EXPECT_EQ(walk, expected);

  Instance held = walk;
  walk.Set("r", MakeRel({3}));  // shared: replaced, not overwritten
  EXPECT_NE(walk.Find("r"), held.Find("r"));
  EXPECT_EQ(held.Find("r")->tuples(), MakeRel({2}).tuples());
  EXPECT_EQ(held.Hash(), expected.Hash());
}

TEST(InstanceSharingTest, SharedRelationsCompareAsDeepCopies) {
  Instance a;
  a.Set("r", MakeRel({1, 2}));
  a.Set("s", MakeRel({3}));
  const Instance shared = a;
  const Instance deep = DeepCopy(a);
  EXPECT_EQ(shared, deep);
  EXPECT_EQ(shared.Compare(deep), 0);
  EXPECT_EQ(shared.Hash(), deep.Hash());
  EXPECT_EQ(DeepCopy(a).Hash(), a.Hash());

  // One relation shared, one equal but not shared.
  Instance mixed = a;
  mixed.Set("s", MakeRel({3}));
  EXPECT_EQ(mixed, deep);
  EXPECT_EQ(mixed.Hash(), deep.Hash());
  mixed.Set("s", MakeRel({4}));
  EXPECT_NE(mixed, a);
  EXPECT_EQ(mixed.Compare(a), -a.Compare(mixed));
  EXPECT_NE(mixed.Compare(a), 0);
}

// Workers of one state-space build, sampler shards and concurrent requests
// read the same relations: copy, replace, hash and compare from 8 threads
// at once, against an original none of them may change.
TEST(InstanceSharingTest, ThreadsCopyAndReplaceSharedRelations) {
  Instance original;
  for (int r = 0; r < 4; ++r) {
    original.Set("r" + std::to_string(r), MakeRel({r, r + 10, r + 20}));
  }
  const Instance deep = DeepCopy(original);
  const size_t hash = deep.Hash();
  const std::string text = deep.ToString();

  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string name = "r" + std::to_string(t % 4);
      for (int round = 0; round < 200; ++round) {
        Instance mine = original;
        if (mine != deep || mine.Hash() != hash) ++failures;
        mine.Set(name, MakeRel({100 + t, round}));  // replaces a shared one
        mine.Set(name, MakeRel({t}));  // steps its own in place
        mine.Set("own" + std::to_string(t),
                 std::make_shared<Relation>(MakeRel({round})));
        if (mine == deep || mine.Hash() == hash) ++failures;
        if (original.Compare(deep) != 0 || original.Hash() != hash) {
          ++failures;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(original, deep);
  EXPECT_EQ(original.ToString(), text);
}

}  // namespace
}  // namespace pfql
