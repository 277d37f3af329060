// Concurrency proof obligations for the QueryService registry RCU: writers
// republish named instances (shared_ptr-swap snapshots) while readers pull
// `list` control requests. Every observed (name, hash) pair is decomposed
// into a per-name read event and checked for linearizability against a
// last-writer-wins register model — a torn snapshot, a lost registration,
// or a read that travels back in time all fail the check. Run under TSan
// in the concurrency-stress CI job.
#include "server/query_service.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "linearizability.h"
#include "schedule_permuter.h"

namespace pfql {
namespace server {
namespace {

using pfql::testing::Event;
using pfql::testing::History;
using pfql::testing::IsLinearizable;
using pfql::testing::PartitionBy;
using pfql::testing::SchedulePermuter;
using pfql::testing::ScheduleSeed;

constexpr uint64_t kNames = 8;
constexpr uint64_t kVersions = 6;

std::string NameFor(uint64_t k) { return "inst_" + std::to_string(k); }

Instance VersionInstance(uint64_t k, uint64_t v) {
  Instance db;
  Relation r(Schema({"k", "v"}));
  r.Insert(Tuple{Value(static_cast<int64_t>(k)),
                 Value(static_cast<int64_t>(v))});
  db.Set("payload", std::move(r));
  return db;
}

struct RegistryOp {
  enum Kind { kRegister, kRead } kind = kRegister;
  uint64_t key = 0;
  int64_t version = -1;  ///< -1 on a read = name absent
};

// Last-writer-wins register, never deleted: a read must see exactly the
// version of the last linearized register (or absent before the first).
std::optional<int64_t> ApplyRegistryOp(const int64_t& state,
                                       const RegistryOp& op) {
  if (op.kind == RegistryOp::kRegister) return op.version;
  if (op.version != state) return std::nullopt;
  return state;
}

TEST(RegistrySnapshotConcurrencyTest, ListNeverSeesTornOrStaleRegistry) {
  const uint64_t seed = ScheduleSeed(20260808);
  constexpr size_t kThreads = 8;  // 4 writers + 4 list readers
  constexpr size_t kRounds = 40;

  // hash → (name key, version): lets a reader decode which version a
  // listed entry is. Structural hashes of distinct tuples never collide
  // in this tiny universe (asserted below).
  std::map<uint64_t, std::pair<uint64_t, int64_t>> hash_to_version;
  for (uint64_t k = 0; k < kNames; ++k) {
    for (uint64_t v = 0; v < kVersions; ++v) {
      Instance instance = VersionInstance(k, v);
      auto [it, fresh] = hash_to_version.emplace(
          instance.Hash(), std::make_pair(k, static_cast<int64_t>(v)));
      ASSERT_TRUE(fresh) << "hash collision in test universe";
    }
  }

  QueryService service;
  History<RegistryOp> history(kThreads);
  SchedulePermuter permuter(seed, kThreads);
  permuter.Run(kRounds, [&](size_t thread, Rng& rng) {
    if (thread < kThreads / 2) {
      // Writer: republish a few names at random versions.
      for (int i = 0; i < 4; ++i) {
        SchedulePermuter::Jitter(&rng);
        RegistryOp op;
        op.kind = RegistryOp::kRegister;
        op.key = rng.NextIndex(kNames);
        op.version = static_cast<int64_t>(rng.NextIndex(kVersions));
        const uint64_t invoke = history.Invoke();
        ASSERT_TRUE(service
                        .RegisterInstance(
                            NameFor(op.key),
                            VersionInstance(op.key,
                                            static_cast<uint64_t>(op.version)))
                        .ok());
        history.Record(thread, invoke, op);
      }
      return;
    }
    // Reader: one `list` control call = one atomic registry snapshot;
    // decompose it into a read event per name (present or absent).
    Request list;
    list.kind = RequestKind::kList;
    const uint64_t invoke = history.Invoke();
    const Response response = service.Call(list);
    ASSERT_TRUE(response.status.ok());
    const Json* instances = response.result.Find("instances");
    ASSERT_NE(instances, nullptr);
    std::map<uint64_t, int64_t> seen;
    for (const Json& item : instances->items()) {
      const uint64_t hash =
          std::stoull(item.Find("hash")->AsString());
      auto it = hash_to_version.find(hash);
      ASSERT_NE(it, hash_to_version.end())
          << "listed hash matches no version ever registered (torn write?)";
      ASSERT_EQ(NameFor(it->second.first), item.Find("name")->AsString())
          << "hash listed under the wrong name";
      seen[it->second.first] = it->second.second;
    }
    for (uint64_t k = 0; k < kNames; ++k) {
      RegistryOp op;
      op.kind = RegistryOp::kRead;
      op.key = k;
      auto it = seen.find(k);
      op.version = it == seen.end() ? -1 : it->second;
      history.Record(thread, invoke, op);
    }
  });

  std::vector<Event<RegistryOp>> events = history.Take();
  ASSERT_GT(events.size(), 0u);
  auto parts = PartitionBy(std::move(events),
                           [](const RegistryOp& op) { return op.key; });
  for (auto& [key, part] : parts) {
    std::string error;
    const bool linearizable = IsLinearizable<RegistryOp, int64_t>(
        std::move(part), int64_t{-1}, ApplyRegistryOp,
        [](const int64_t& s) { return std::to_string(s); }, &error);
    EXPECT_TRUE(linearizable)
        << "name " << NameFor(key) << ": " << error << " (seed " << seed
        << ")";
  }
}

TEST(RegistrySnapshotConcurrencyTest, ResolveKeepsSnapshotAcrossReplace) {
  // An in-flight request resolves against the snapshot it started with:
  // replacing a name mid-flight must not affect the resolved entry.
  QueryService service;
  ASSERT_TRUE(
      service.RegisterInstance("db", VersionInstance(0, 0)).ok());
  Request list;
  list.kind = RequestKind::kList;
  const Response before = service.Call(list);
  ASSERT_TRUE(before.status.ok());
  ASSERT_EQ(before.result.Find("instances")->items().size(), 1u);
  ASSERT_TRUE(
      service.RegisterInstance("db", VersionInstance(0, 1)).ok());
  // Old snapshots are frozen; new reads see the replacement.
  const Response response = service.Call(list);
  ASSERT_TRUE(response.status.ok());
  const Json* instances = response.result.Find("instances");
  ASSERT_EQ(instances->items().size(), 1u);
  EXPECT_EQ(std::stoull(instances->items()[0].Find("hash")->AsString()),
            VersionInstance(0, 1).Hash());
}

}  // namespace
}  // namespace server
}  // namespace pfql
