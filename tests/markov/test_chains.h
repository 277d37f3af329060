// Hand-built chains for the markov tests: MarkovChain::FromRows with a
// rejection reported as a test failure and the empty chain in its place.
#ifndef PFQL_TESTS_MARKOV_TEST_CHAINS_H_
#define PFQL_TESTS_MARKOV_TEST_CHAINS_H_

#include <utility>

#include <gtest/gtest.h>

#include "markov/markov_chain.h"

namespace pfql {

inline MarkovChain Chain(MarkovChain::Rows rows) {
  auto chain = MarkovChain::FromRows(std::move(rows));
  EXPECT_TRUE(chain.ok()) << chain.status();
  return chain.ok() ? std::move(chain).value() : MarkovChain();
}

}  // namespace pfql

#endif  // PFQL_TESTS_MARKOV_TEST_CHAINS_H_
