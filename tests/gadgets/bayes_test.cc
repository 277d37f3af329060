#include "gadgets/bayes.h"

#include <gtest/gtest.h>

#include <set>

#include "eval/inflationary.h"
#include "util/random.h"

namespace pfql {
namespace gadgets {
namespace {

// A random DAG with in-degree <= max_parents and CPT entries in
// {1/8, ..., 7/8}.
BayesNet RandomBayesNet(size_t n, size_t max_parents, Rng* rng) {
  BayesNet net;
  for (size_t i = 0; i < n; ++i) {
    BayesNode node;
    node.name = "x" + std::to_string(i);
    const size_t limit = std::min(max_parents, i);
    const size_t k = limit == 0 ? 0 : rng->NextIndex(limit + 1);
    std::set<size_t> parents;
    while (parents.size() < k) parents.insert(rng->NextIndex(i));
    node.parents.assign(parents.begin(), parents.end());
    for (size_t r = 0; r < (size_t{1} << node.parents.size()); ++r) {
      node.p_true.emplace_back(static_cast<int64_t>(1 + rng->NextIndex(7)),
                               int64_t{8});
    }
    net.nodes.push_back(std::move(node));
  }
  return net;
}

TEST(BayesNetTest, ValidateCatchesBadNetworks) {
  BayesNet net = ChainBayesNet(3);
  EXPECT_TRUE(net.Validate().ok());
  net.nodes[0].parents = {2};  // forward reference
  EXPECT_FALSE(net.Validate().ok());

  BayesNet bad_cpt = ChainBayesNet(2);
  bad_cpt.nodes[1].p_true.pop_back();
  EXPECT_FALSE(bad_cpt.Validate().ok());

  BayesNet bad_prob = ChainBayesNet(1);
  bad_prob.nodes[0].p_true[0] = BigRational(3, 2);
  EXPECT_FALSE(bad_prob.Validate().ok());

  BayesNet dup = ChainBayesNet(2);
  dup.nodes[1].name = dup.nodes[0].name;
  EXPECT_FALSE(dup.Validate().ok());
}

TEST(BayesNetTest, JointProbabilityChain) {
  BayesNet net = ChainBayesNet(2);
  // Pr[x0=1, x1=1] = 1/2 * 3/4 = 3/8.
  EXPECT_EQ(net.JointProbability({true, true}), BigRational(3, 8));
  // Pr[x0=0, x1=1] = 1/2 * 1/4 = 1/8.
  EXPECT_EQ(net.JointProbability({false, true}), BigRational(1, 8));
}

TEST(BayesNetTest, ExactMarginalSumsToOne) {
  BayesNet net = ChainBayesNet(3);
  auto p1 = net.ExactMarginal({{2, true}});
  auto p0 = net.ExactMarginal({{2, false}});
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p0.ok());
  EXPECT_TRUE((p1.value() + p0.value()).IsOne());
}

TEST(BayesNetTest, MarginalOfRootIsPrior) {
  BayesNet net = ChainBayesNet(3);
  auto p = net.ExactMarginal({{0, true}});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value(), BigRational(1, 2));
}

TEST(BayesNetTest, SprinklerKnownMarginal) {
  BayesNet net = SprinklerNet();
  ASSERT_TRUE(net.Validate().ok());
  // Pr[rain] = Pr[c]*0.8 + Pr[!c]*0.2 = 0.5.
  auto p_rain = net.ExactMarginal({{2, true}});
  ASSERT_TRUE(p_rain.ok());
  EXPECT_EQ(p_rain.value(), BigRational(1, 2));
}

TEST(BayesMarginalProgramTest, Example310ChainMarginalsExact) {
  // The datalog encoding's exact evaluation equals brute-force enumeration.
  BayesNet net = ChainBayesNet(2);
  for (bool v0 : {false, true}) {
    for (bool v1 : {false, true}) {
      std::vector<std::pair<size_t, bool>> query{{0, v0}, {1, v1}};
      auto gadget = BayesMarginalProgram(net, query);
      ASSERT_TRUE(gadget.ok()) << gadget.status();
      auto p = eval::ExactInflationary(gadget->program, gadget->edb,
                                       gadget->event);
      ASSERT_TRUE(p.ok()) << p.status();
      auto truth = net.ExactMarginal(query);
      ASSERT_TRUE(truth.ok());
      EXPECT_EQ(p.value(), truth.value()) << v0 << "," << v1;
    }
  }
}

TEST(BayesMarginalProgramTest, SingleNodeMarginal) {
  BayesNet net = ChainBayesNet(3);
  std::vector<std::pair<size_t, bool>> query{{2, true}};
  auto gadget = BayesMarginalProgram(net, query);
  ASSERT_TRUE(gadget.ok());
  auto p = eval::ExactInflationary(gadget->program, gadget->edb,
                                   gadget->event);
  ASSERT_TRUE(p.ok()) << p.status();
  auto truth = net.ExactMarginal(query);
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(p.value(), truth.value());
}

TEST(BayesMarginalProgramTest, SprinklerJointMarginal) {
  BayesNet net = SprinklerNet();
  std::vector<std::pair<size_t, bool>> query{{3, true}, {2, true}};
  auto gadget = BayesMarginalProgram(net, query);
  ASSERT_TRUE(gadget.ok());
  auto p = eval::ExactInflationary(gadget->program, gadget->edb,
                                   gadget->event);
  ASSERT_TRUE(p.ok()) << p.status();
  auto truth = net.ExactMarginal(query);
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(p.value(), truth.value());
}

TEST(BayesMarginalProgramTest, ApproxMatchesTruth) {
  BayesNet net = SprinklerNet();
  std::vector<std::pair<size_t, bool>> query{{3, true}};
  auto gadget = BayesMarginalProgram(net, query);
  ASSERT_TRUE(gadget.ok());
  auto truth = net.ExactMarginal(query);
  ASSERT_TRUE(truth.ok());
  eval::ApproxParams params;
  params.epsilon = 0.05;
  params.delta = 0.01;
  Rng rng(21);
  auto approx = eval::ApproxInflationary(gadget->program, gadget->edb,
                                         gadget->event, params, &rng);
  ASSERT_TRUE(approx.ok()) << approx.status();
  EXPECT_NEAR(approx->estimate, truth.value().ToDouble(), params.epsilon);
}

TEST(BayesMarginalProgramTest, RandomNetsMatchEnumeration) {
  Rng rng(33);
  for (int trial = 0; trial < 3; ++trial) {
    BayesNet net = RandomBayesNet(4, 2, &rng);
    ASSERT_TRUE(net.Validate().ok());
    std::vector<std::pair<size_t, bool>> query{
        {rng.NextIndex(4), rng.NextBernoulli(0.5)}};
    auto gadget = BayesMarginalProgram(net, query);
    ASSERT_TRUE(gadget.ok());
    eval::ApproxParams params;
    params.epsilon = 0.08;
    params.delta = 0.02;
    auto approx = eval::ApproxInflationary(gadget->program, gadget->edb,
                                           gadget->event, params, &rng);
    ASSERT_TRUE(approx.ok()) << approx.status();
    auto truth = net.ExactMarginal(query);
    ASSERT_TRUE(truth.ok());
    EXPECT_NEAR(approx->estimate, truth.value().ToDouble(), params.epsilon);
  }
}

TEST(BayesMarginalProgramTest, RejectsBadQueryIndex) {
  BayesNet net = ChainBayesNet(2);
  EXPECT_FALSE(BayesMarginalProgram(net, {{9, true}}).ok());
}

}  // namespace
}  // namespace gadgets
}  // namespace pfql
