#include "util/fault_injection.h"

#include <gtest/gtest.h>

#include <chrono>

namespace pfql {
namespace fault {
namespace {

// Every test drives the process-global registry; reset around each so
// armed faults cannot leak into unrelated tests in this binary.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Instance().Reset(); }
  void TearDown() override { FaultRegistry::Instance().Reset(); }
};

TEST_F(FaultInjectionTest, DisarmedPointNeverFires) {
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(InjectFault(points::kApproxSample));
  }
  // Hits at disarmed points are not even counted (fast path).
  EXPECT_EQ(FaultRegistry::Instance().HitCount(points::kApproxSample), 0u);
}

TEST_F(FaultInjectionTest, NthHitFiresExactlyOnce) {
  FaultRegistry::Instance().Arm(points::kMcmcSample, FaultSpec::NthHit(3));
  EXPECT_FALSE(InjectFault(points::kMcmcSample));
  EXPECT_FALSE(InjectFault(points::kMcmcSample));
  EXPECT_TRUE(InjectFault(points::kMcmcSample));
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(InjectFault(points::kMcmcSample));
  }
  EXPECT_EQ(FaultRegistry::Instance().HitCount(points::kMcmcSample), 13u);
  EXPECT_EQ(FaultRegistry::Instance().FiredCount(points::kMcmcSample), 1u);
}

TEST_F(FaultInjectionTest, ReArmingRestartsTheHitCount) {
  FaultRegistry::Instance().Arm(points::kTcpWrite, FaultSpec::NthHit(2));
  EXPECT_FALSE(InjectFault(points::kTcpWrite));
  FaultRegistry::Instance().Arm(points::kTcpWrite, FaultSpec::NthHit(2));
  EXPECT_FALSE(InjectFault(points::kTcpWrite));  // hit 1 again
  EXPECT_TRUE(InjectFault(points::kTcpWrite));   // hit 2 fires
}

TEST_F(FaultInjectionTest, ProbabilityZeroNeverFiresAndOneAlwaysFires) {
  FaultRegistry::Instance().Arm(points::kCacheLookup,
                                FaultSpec::Probability(0.0));
  FaultRegistry::Instance().Arm(points::kCacheEvict,
                                FaultSpec::Probability(1.0));
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(InjectFault(points::kCacheLookup));
    EXPECT_TRUE(InjectFault(points::kCacheEvict));
  }
}

TEST_F(FaultInjectionTest, SeededProbabilityScheduleIsReproducible) {
  auto schedule = [] {
    FaultRegistry::Instance().Reset();
    FaultRegistry::Instance().Arm(points::kPoolSubmit,
                                  FaultSpec::Probability(0.5));
    FaultRegistry::Instance().SetSeed(1234);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(InjectFault(points::kPoolSubmit));
    }
    return fired;
  };
  EXPECT_EQ(schedule(), schedule());
}

TEST_F(FaultInjectionTest, DelayFaultSleepsInsteadOfFailing) {
  FaultRegistry::Instance().Arm(points::kPoolRun,
                                FaultSpec::NthHit(1, /*delay_ms=*/30));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(InjectFault(points::kPoolRun));  // fires, but as latency
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            25);
  EXPECT_EQ(FaultRegistry::Instance().FiredCount(points::kPoolRun), 1u);
}

TEST_F(FaultInjectionTest, SpecStringArmsMultiplePointsAndSeed) {
  Status status = FaultRegistry::Instance().ArmFromSpec(
      "server.tcp.write=n2, eval.approx.sample=p0.25:10; seed=99");
  ASSERT_TRUE(status.ok()) << status.ToString();
  auto armed = FaultRegistry::Instance().ArmedPoints();
  EXPECT_EQ(armed.size(), 2u);
  EXPECT_FALSE(InjectFault(points::kTcpWrite));
  EXPECT_TRUE(InjectFault(points::kTcpWrite));
}

TEST_F(FaultInjectionTest, MalformedSpecsAreRejected) {
  auto& registry = FaultRegistry::Instance();
  EXPECT_FALSE(registry.ArmFromSpec("nonsense").ok());
  EXPECT_FALSE(registry.ArmFromSpec("point=x1").ok());
  EXPECT_FALSE(registry.ArmFromSpec("point=p1.5").ok());
  EXPECT_FALSE(registry.ArmFromSpec("point=n0").ok());
  EXPECT_FALSE(registry.ArmFromSpec("point=n2:abc").ok());
  EXPECT_FALSE(registry.ArmFromSpec("seed=notanumber").ok());
}

// Each integer is read whole and bounded, not wrapped into range: a signed
// delay, hit index or seed and a delay that does not fit uint32_t are
// refused, as is a probability that is not a number, and nothing is armed.
TEST_F(FaultInjectionTest, SpecNumbersAreReadWholeWithinBounds) {
  auto& registry = FaultRegistry::Instance();
  for (const char* spec :
       {"point=n3:-1", "point=n3:4294967296", "point=n3:3600001", "point=n-1",
        "point=n+1", "point=n1x", "point=n18446744073709551616", "seed=-1",
        "seed=18446744073709551616", "seed=", "point=pnan", "point=p-0.5",
        "point=n2: 5"}) {
    Status status = registry.ArmFromSpec(spec);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << spec << ": " << status;
  }
  EXPECT_TRUE(registry.ArmedPoints().empty());

  ASSERT_TRUE(registry
                  .ArmFromSpec("a=n3:3600000, b=n18446744073709551615, "
                               "c=p1:0, seed=18446744073709551615")
                  .ok());
  const Json snapshot = registry.SnapshotJson();
  EXPECT_EQ(registry.ArmedPoints().size(), 3u);
  for (const char* point : {"a", "b", "c"}) {
    const Json* state = snapshot.Find(point);
    ASSERT_NE(state, nullptr) << point;
    EXPECT_TRUE(state->Find("armed")->AsBool()) << point;
  }
  EXPECT_EQ(snapshot.Find("a")->Find("delay_ms")->AsInt(), 3600000);
}

TEST_F(FaultInjectionTest, SpecArmsNothingUnlessEveryEntryParses) {
  auto& registry = FaultRegistry::Instance();
  for (const char* spec : {"server.tcp.write=n1, bogus",
                           "seed=7; server.tcp.write=p1; a=n0"}) {
    EXPECT_EQ(registry.ArmFromSpec(spec).code(),
              StatusCode::kInvalidArgument)
        << spec;
    EXPECT_TRUE(registry.ArmedPoints().empty()) << spec;
  }
}

TEST_F(FaultInjectionTest, ScopedFaultDisarmsOnDestruction) {
  {
    ScopedFault fault(points::kStateSpaceExpand, FaultSpec::Probability(1.0));
    EXPECT_TRUE(InjectFault(points::kStateSpaceExpand));
  }
  EXPECT_FALSE(InjectFault(points::kStateSpaceExpand));
  EXPECT_TRUE(FaultRegistry::Instance().ArmedPoints().empty());
}

TEST_F(FaultInjectionTest, InjectedErrorIsRetryableUnavailable) {
  Status status = InjectedError(points::kTcpRead);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_NE(status.message().find(points::kTcpRead), std::string::npos);
}

TEST_F(FaultInjectionTest, SnapshotReportsArmedStateAndCounters) {
  FaultRegistry::Instance().Arm(points::kCacheEvict, FaultSpec::NthHit(1));
  InjectFault(points::kCacheEvict);
  Json snapshot = FaultRegistry::Instance().SnapshotJson();
  const Json* point = snapshot.Find(points::kCacheEvict);
  ASSERT_NE(point, nullptr);
  const Json* fired = point->Find("fired");
  ASSERT_NE(fired, nullptr);
  EXPECT_EQ(fired->AsInt(), 1);
}

TEST_F(FaultInjectionTest, KnownPointsCatalogIsComplete) {
  // The catalog drives the chaos-coverage assertion; keep it in sync with
  // the named constants.
  EXPECT_EQ(KnownPoints().size(), 12u);
}

}  // namespace
}  // namespace fault
}  // namespace pfql
