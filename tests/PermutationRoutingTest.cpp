//===- tests/PermutationRoutingTest.cpp - Permutation traffic tests ------===//

#include "comm/PermutationRouting.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

using namespace scg;

TEST(PermutationRouting, PatternsArePermutations) {
  ExplicitScg Net(SuperCayleyGraph::star(5));
  for (const TrafficPattern &P :
       {randomTraffic(Net, 7), reversalTraffic(Net),
        translationTraffic(Net, 0)}) {
    std::set<NodeId> Seen(P.begin(), P.end());
    EXPECT_EQ(Seen.size(), Net.numNodes());
  }
}

TEST(PermutationRouting, RandomTrafficIsSeedDeterministic) {
  ExplicitScg Net(SuperCayleyGraph::star(5));
  EXPECT_EQ(randomTraffic(Net, 3), randomTraffic(Net, 3));
  EXPECT_NE(randomTraffic(Net, 3), randomTraffic(Net, 4));
}

TEST(PermutationRouting, CompletesWithinConstantOfLoad) {
  for (auto Scg : {SuperCayleyGraph::star(5),
                   SuperCayleyGraph::insertionSelection(5),
                   SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2)}) {
    ExplicitScg Net(Scg);
    PermutationRoutingResult R =
        simulatePermutationRouting(Net, randomTraffic(Net, 11));
    EXPECT_GE(R.Steps, R.LowerBound) << Scg.name();
    EXPECT_LE(R.Ratio, 4.0) << Scg.name();
  }
}

TEST(PermutationRouting, TranslationTrafficIsPerfectlyUniform) {
  // u -> u o g: every node's route is the same relative word, so the
  // packets advance in lockstep with no queueing and completion equals
  // the route length exactly -- the "traffic is uniform" property of
  // Cayley routing the paper's conclusion highlights.
  ExplicitScg Net(SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2));
  for (GenIndex G = 0; G != Net.degree(); ++G) {
    PermutationRoutingResult R =
        simulatePermutationRouting(Net, translationTraffic(Net, G));
    EXPECT_EQ(R.Steps, uint64_t(R.AverageRouteLength + 0.5)) << "gen " << G;
    EXPECT_DOUBLE_EQ(R.Ratio, 1.0) << "gen " << G;
    EXPECT_LE(R.MaxLinkLoad, R.Steps) << "gen " << G;
  }
}

TEST(PermutationRouting, ReversalCompletes) {
  ExplicitScg Net(SuperCayleyGraph::create(NetworkKind::MacroIS, 2, 2));
  PermutationRoutingResult R =
      simulatePermutationRouting(Net, reversalTraffic(Net));
  EXPECT_GE(R.Steps, R.LowerBound);
  EXPECT_LE(R.Ratio, 4.0);
}

TEST(PermutationRouting, SinglePortIsSlower) {
  ExplicitScg Net(SuperCayleyGraph::star(5));
  TrafficPattern P = randomTraffic(Net, 5);
  uint64_t AllPort = simulatePermutationRouting(Net, P).Steps;
  uint64_t OnePort =
      simulatePermutationRouting(Net, P, CommModel::SinglePort).Steps;
  EXPECT_LE(AllPort, OnePort);
}

TEST(PermutationRouting, RejectsBadHostsAndPatterns) {
  // A host the engine cannot route without a table.
  ExplicitScg Mr(SuperCayleyGraph::create(NetworkKind::MacroRotator, 2, 2));
  EXPECT_THROW(simulatePermutationRouting(Mr, randomTraffic(Mr, 1)),
               std::invalid_argument);

  ExplicitScg Net(SuperCayleyGraph::star(5));
  TrafficPattern Short = randomTraffic(Net, 1);
  Short.pop_back();
  EXPECT_THROW(simulatePermutationRouting(Net, Short), std::invalid_argument);
  TrafficPattern Long = randomTraffic(Net, 1);
  Long.push_back(0);
  EXPECT_THROW(simulatePermutationRouting(Net, Long), std::invalid_argument);

  // An entry past the last node, also behind entries that route fine.
  TrafficPattern OutOfRange = reversalTraffic(Net);
  OutOfRange.back() = NodeId(Net.numNodes());
  EXPECT_THROW(simulatePermutationRouting(Net, OutOfRange),
               std::invalid_argument);
  OutOfRange.back() = ~NodeId(0);
  EXPECT_THROW(simulatePermutationRouting(Net, OutOfRange),
               std::invalid_argument);
}
