//===- tests/EmbeddingTest.cpp - Embedding framework tests ---------------===//

#include "embedding/Embedding.h"

#include "embedding/PathTemplates.h"
#include "perm/Lehmer.h"

#include "Oracles.h"

#include <gtest/gtest.h>

using namespace scg;

namespace {

/// A 2-node guest mapped onto a star edge.
Embedding edgeEmbedding(const SuperCayleyGraph &Star) {
  Embedding E;
  E.Host = &Star;
  Permutation Id = Permutation::identity(Star.numSymbols());
  E.NodeMap = {Id, Id.compose(Star.generators()[0].Sigma)};
  const SuperCayleyGraph *Host = &Star;
  E.Route = [Host](NodeId U, NodeId) {
    GeneratorPath Path;
    (void)Host;
    (void)U;
    Path.append(0); // T_2 is an involution: works in both directions.
    return Path;
  };
  return E;
}

} // namespace

TEST(Embedding, SingleEdgeMetrics) {
  SuperCayleyGraph Star = SuperCayleyGraph::star(4);
  Csr Guest = oracle::undirectedGraph(2, {{0, 1}});
  EmbeddingMetrics M = measureEmbedding(Guest, edgeEmbedding(Star));
  EXPECT_TRUE(M.Valid);
  EXPECT_EQ(M.Load, 1u);
  EXPECT_EQ(M.Dilation, 1u);
  EXPECT_EQ(M.Congestion, 1u);
  EXPECT_DOUBLE_EQ(M.Expansion, 12.0);
  EXPECT_DOUBLE_EQ(M.AverageRouteLength, 1.0);
}

TEST(Embedding, DetectsBrokenRoutes) {
  SuperCayleyGraph Star = SuperCayleyGraph::star(4);
  Embedding E = edgeEmbedding(Star);
  E.Route = [](NodeId, NodeId) {
    GeneratorPath Path;
    Path.append(1); // T_3 does not connect the mapped endpoints.
    return Path;
  };
  Csr Guest = oracle::undirectedGraph(2, {{0, 1}});
  EXPECT_FALSE(measureEmbedding(Guest, E).Valid);
}

TEST(Embedding, LoadCountsCollisions) {
  SuperCayleyGraph Star = SuperCayleyGraph::star(4);
  Embedding E;
  E.Host = &Star;
  Permutation Id = Permutation::identity(4);
  E.NodeMap = {Id, Id, Id};
  E.Route = [](NodeId, NodeId) { return GeneratorPath(); };
  Csr Guest = oracle::undirectedGraph(3, {}); // no edges.
  EmbeddingMetrics M = measureEmbedding(Guest, E);
  EXPECT_EQ(M.Load, 3u);
  EXPECT_EQ(M.Dilation, 0u);
}

TEST(Embedding, CongestionAccumulatesOnSharedLinks) {
  SuperCayleyGraph Star = SuperCayleyGraph::star(4);
  // Three guest nodes all routed through the identity's T_2 link.
  Embedding E;
  E.Host = &Star;
  Permutation Id = Permutation::identity(4);
  Permutation V = Id.compose(Star.generators()[0].Sigma);
  E.NodeMap = {Id, V, Id, V};
  E.Route = [](NodeId U, NodeId) {
    GeneratorPath Path;
    (void)U;
    Path.append(0);
    return Path;
  };
  Csr Guest(4, std::vector<std::pair<NodeId, NodeId>>{{0, 1}, {2, 3}});
  EmbeddingMetrics M = measureEmbedding(Guest, E);
  EXPECT_TRUE(M.Valid);
  EXPECT_EQ(M.Congestion, 2u); // both directed edges share (Id, T_2).
}

TEST(Embedding, IdentityNodeMapEnumeratesByRank) {
  std::vector<Permutation> Map = identityNodeMap(4);
  ASSERT_EQ(Map.size(), factorial(4));
  for (uint64_t R = 0; R != Map.size(); ++R)
    EXPECT_EQ(rankPermutation(Map[R]), R);
}
