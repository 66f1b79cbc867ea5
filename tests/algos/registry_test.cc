// Pins the algorithm name table: every row constructs an algorithm
// that reports the row's own name (reports are keyed by name(), specs
// and benches by the row), names are unique, and an unknown name fails
// with every accepted name in the message.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "algos/registry.h"
#include "util/error.h"

namespace np {
namespace {

TEST(AlgorithmRegistry, EveryRowBuildsTheAlgorithmItNames) {
  std::set<std::string> names;
  for (const algos::RegisteredAlgorithm& entry : algos::kAlgorithms) {
    EXPECT_TRUE(names.insert(entry.name).second) << entry.name;
    EXPECT_EQ(entry.make()->name(), entry.name);
    EXPECT_EQ(algos::FindAlgorithm(entry.name), &entry);
  }
  EXPECT_EQ(names.size(), 11u);
}

TEST(AlgorithmRegistry, UnknownNameListsEveryAcceptedName) {
  EXPECT_EQ(algos::FindAlgorithm("hybrid-ucl"), nullptr);
  try {
    algos::MakeAlgorithm("no-such-algorithm");
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("unknown algorithm: no-such-algorithm"),
              std::string::npos);
    for (const algos::RegisteredAlgorithm& entry : algos::kAlgorithms) {
      EXPECT_NE(message.find(entry.name), std::string::npos) << entry.name;
    }
  }
}

}  // namespace
}  // namespace np
