//===- tests/HypercubeEmbeddingTest.cpp - Corollary 5 tests --------------===//

#include "embedding/HypercubeEmbedding.h"

#include "networks/Classic.h"

#include "Oracles.h"

#include <gtest/gtest.h>

using namespace scg;

TEST(HypercubeEmbedding, DimensionBudget) {
  EXPECT_EQ(hypercubeDimensionFor(5), 2u);
  EXPECT_EQ(hypercubeDimensionFor(7), 3u);
  EXPECT_EQ(hypercubeDimensionFor(8), 3u);
  EXPECT_EQ(hypercubeDimensionFor(9), 4u);
}

TEST(HypercubeEmbedding, DilationThreeLoadOne) {
  for (unsigned K = 5; K <= 8; ++K) {
    SuperCayleyGraph Star = SuperCayleyGraph::star(K);
    Graph Guest = hypercube(hypercubeDimensionFor(K));
    Embedding E = embedHypercubeIntoStar(Star);
    EmbeddingMetrics M = measureEmbedding(Guest, E);
    EXPECT_TRUE(M.Valid) << "k=" << K;
    EXPECT_EQ(M.Load, 1u) << "k=" << K;
    EXPECT_EQ(M.Dilation, 3u) << "k=" << K;
  }
}

TEST(HypercubeEmbedding, NodeImagesCommute) {
  // The bit transpositions are disjoint, so toggling bits in any order
  // lands on the same label: neighbors along different axes from the same
  // node agree on shared bits.
  SuperCayleyGraph Star = SuperCayleyGraph::star(7);
  Embedding E = embedHypercubeIntoStar(Star);
  // Node 5 = bits {0, 2}; applying bit 0 then 2 equals 2 then 0.
  EXPECT_EQ(E.NodeMap[5], E.NodeMap[1].compose(
      E.NodeMap[4].compose(E.NodeMap[0].inverse())));
}

TEST(HypercubeEmbedding, EvenPermutationsOnly) {
  // Every image is a product of disjoint transpositions; parity matches
  // the popcount of the node id.
  SuperCayleyGraph Star = SuperCayleyGraph::star(7);
  Embedding E = embedHypercubeIntoStar(Star);
  for (NodeId B = 0; B != E.NodeMap.size(); ++B) {
    int Expected = (__builtin_popcount(B) % 2 == 0) ? 1 : -1;
    EXPECT_EQ(oracle::sign(E.NodeMap[B]), Expected);
  }
}
