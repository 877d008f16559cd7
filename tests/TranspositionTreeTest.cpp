//===- tests/TranspositionTreeTest.cpp - Transposition-tree tests --------===//
//
// The Akers-Krishnamurthy transposition-tree model [2]: the star graph
// and the bubble-sort graph are the two extreme trees, and every tree
// gives a connected k!-node Cayley graph. Exercises the general factory
// against the special-cased networks and against known diameter ordering
// (the star tree minimizes diameter among trees; the path maximizes it).
//
//===----------------------------------------------------------------------===//

#include "core/SuperCayleyGraph.h"

#include "graph/Metrics.h"
#include "networks/Explicit.h"
#include "perm/GroupOrder.h"

#include "Oracles.h"

#include <gtest/gtest.h>

using namespace scg;

namespace {

std::vector<std::pair<unsigned, unsigned>> starTree(unsigned K) {
  std::vector<std::pair<unsigned, unsigned>> Edges;
  for (unsigned I = 2; I <= K; ++I)
    Edges.push_back({1, I});
  return Edges;
}

std::vector<std::pair<unsigned, unsigned>> pathTree(unsigned K) {
  std::vector<std::pair<unsigned, unsigned>> Edges;
  for (unsigned I = 1; I + 1 <= K; ++I)
    Edges.push_back({I, I + 1});
  return Edges;
}

/// A "broom": a path 1-2-3 with leaves 4..k attached to 3.
std::vector<std::pair<unsigned, unsigned>> broomTree(unsigned K) {
  std::vector<std::pair<unsigned, unsigned>> Edges{{1, 2}, {2, 3}};
  for (unsigned I = 4; I <= K; ++I)
    Edges.push_back({3, I});
  return Edges;
}

uint32_t diameterOf(const SuperCayleyGraph &Net) {
  return vertexTransitiveStats(ExplicitScg(Net).toGraph()).Diameter;
}

} // namespace

TEST(TranspositionTree, StarTreeMatchesStarGraph) {
  SuperCayleyGraph Tree = SuperCayleyGraph::transpositionTree(5, starTree(5));
  SuperCayleyGraph Star = SuperCayleyGraph::star(5);
  ASSERT_EQ(Tree.degree(), Star.degree());
  for (GenIndex G = 0; G != Tree.degree(); ++G)
    EXPECT_TRUE(Star.generators().findByAction(Tree.generators()[G].Sigma))
        << Tree.generators()[G].Name;
  EXPECT_EQ(diameterOf(Tree), diameterOf(Star));
}

TEST(TranspositionTree, PathTreeMatchesBubbleSort) {
  SuperCayleyGraph Tree = SuperCayleyGraph::transpositionTree(5, pathTree(5));
  SuperCayleyGraph Bubble = SuperCayleyGraph::bubbleSort(5);
  ASSERT_EQ(Tree.degree(), Bubble.degree());
  EXPECT_EQ(diameterOf(Tree), diameterOf(Bubble));
}

TEST(TranspositionTree, EveryTreeGeneratesSk) {
  for (auto &Edges : {starTree(6), pathTree(6), broomTree(6)}) {
    SuperCayleyGraph Net = SuperCayleyGraph::transpositionTree(6, Edges);
    std::vector<Permutation> Actions;
    for (const Generator &G : Net.generators())
      Actions.push_back(G.Sigma);
    EXPECT_TRUE(generatesSymmetricGroup(Actions));
  }
}

TEST(TranspositionTree, DiameterOrderingStarBroomPath) {
  uint32_t Star = diameterOf(SuperCayleyGraph::transpositionTree(5, starTree(5)));
  uint32_t Broom = diameterOf(SuperCayleyGraph::transpositionTree(5, broomTree(5)));
  uint32_t Path = diameterOf(SuperCayleyGraph::transpositionTree(5, pathTree(5)));
  EXPECT_LE(Star, Broom);
  EXPECT_LE(Broom, Path);
}

TEST(TranspositionTree, NameAndSymmetry) {
  SuperCayleyGraph Net = SuperCayleyGraph::transpositionTree(5, broomTree(5));
  EXPECT_EQ(Net.name(), "T-tree(5)");
  EXPECT_TRUE(Net.isUndirected());
  EXPECT_EQ(Net.degree(), 4u);
}

TEST(TranspositionTree, ConnectedAtSevenSymbols) {
  SuperCayleyGraph Net = SuperCayleyGraph::transpositionTree(7, broomTree(7));
  EXPECT_TRUE(oracle::isConnectedFromZero(ExplicitScg(Net).toGraph()));
}
