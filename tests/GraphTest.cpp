//===- tests/GraphTest.cpp - Csr container and algorithm tests -----------===//

#include "graph/Csr.h"

#include "graph/Metrics.h"
#include "graph/MsBfs.h"
#include "networks/Classic.h"
#include "networks/Explicit.h"

#include "Oracles.h"

#include <gtest/gtest.h>

#include <stdexcept>

using namespace scg;

using ArcList = std::vector<std::pair<NodeId, NodeId>>;

TEST(Graph, EdgesAndDegrees) {
  Csr G(4, ArcList{{0, 1}, {1, 0}, {2, 3}});
  EXPECT_EQ(G.numNodes(), 4u);
  EXPECT_EQ(G.numEdges(), 3u);
  EXPECT_EQ(G.neighbors(0).size(), 1u);
  EXPECT_TRUE(oracle::hasArc(G, 2, 3));
  EXPECT_FALSE(oracle::hasArc(G, 3, 2));
  EXPECT_FALSE(oracle::isUndirected(G));
  EXPECT_FALSE(oracle::isRegular(G));
}

TEST(Graph, UndirectedDetection) {
  Csr G = oracle::undirectedGraph(3, {{0, 1}, {1, 2}});
  EXPECT_TRUE(oracle::isUndirected(G));
}

TEST(Csr, RowsKeepArcInputOrder) {
  // Arcs out of order by source: the counting sort groups them by row and
  // keeps each row's arcs in input order.
  Csr G(4, ArcList{{2, 0}, {0, 3}, {2, 3}, {0, 1}, {2, 1}, {0, 2}});
  EXPECT_EQ(G.numEdges(), 6u);
  EXPECT_EQ(std::vector<NodeId>(G.neighbors(0).begin(), G.neighbors(0).end()),
            (std::vector<NodeId>{3, 1, 2}));
  EXPECT_TRUE(G.neighbors(1).empty());
  EXPECT_EQ(std::vector<NodeId>(G.neighbors(2).begin(), G.neighbors(2).end()),
            (std::vector<NodeId>{0, 3, 1}));
  EXPECT_TRUE(G.neighbors(3).empty());
  // The transpose shares the counting sort and lists in-neighbors ascending.
  Csr T = G.transpose();
  EXPECT_EQ(std::vector<NodeId>(T.neighbors(3).begin(), T.neighbors(3).end()),
            (std::vector<NodeId>{0, 2}));
}

TEST(Csr, RejectsOutOfRangeEndpointsAndSelfLoops) {
  EXPECT_THROW(Csr(3, ArcList{{0, 1}, {1, 3}}), std::invalid_argument);
  EXPECT_THROW(Csr(3, ArcList{{3, 0}}), std::invalid_argument);
  EXPECT_THROW(Csr(0, ArcList{{0, 0}}), std::invalid_argument);
  EXPECT_THROW(Csr(3, ArcList{{0, 1}, {2, 2}}), std::invalid_argument);
}

TEST(Bfs, PathGraphDistances) {
  Csr G = oracle::undirectedGraph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  oracle::BfsResult R = oracle::bfs(G, 0);
  for (NodeId I = 0; I != 5; ++I)
    EXPECT_EQ(R.Distance[I], I);
  EXPECT_EQ(R.Eccentricity, 4u);
  EXPECT_EQ(R.NumReached, 5u);
  EXPECT_EQ(R.DistanceSum, 1u + 2 + 3 + 4);
}

TEST(Bfs, ParentsFormShortestPathTree) {
  Csr G = mesh2D(3, 3);
  oracle::BfsResult R = oracle::bfs(G, 0);
  for (NodeId V = 1; V != G.numNodes(); ++V)
    EXPECT_EQ(R.Distance[V], R.Distance[R.Parent[V]] + 1);
}

TEST(Bfs, DisconnectedMarksUnreachable) {
  Csr G = oracle::undirectedGraph(4, {{0, 1}, {2, 3}});
  oracle::BfsResult R = oracle::bfs(G, 0);
  EXPECT_EQ(R.Distance[2], UnreachableDistance);
  EXPECT_EQ(R.NumReached, 2u);
  EXPECT_FALSE(oracle::isConnectedFromZero(G));
}

TEST(Metrics, HypercubeDiameterEqualsDimension) {
  for (unsigned D = 1; D <= 6; ++D) {
    Csr G = hypercube(D);
    DistanceStats Stats = vertexTransitiveStats(G);
    EXPECT_TRUE(Stats.Connected);
    EXPECT_EQ(Stats.Diameter, D);
  }
}

TEST(Metrics, AllPairsMatchesTransitiveOnHypercube) {
  Csr G = hypercube(4);
  DistanceStats All = msAllPairsStats(G);
  DistanceStats One = vertexTransitiveStats(G);
  EXPECT_EQ(All.Diameter, One.Diameter);
  EXPECT_DOUBLE_EQ(All.AverageDistance, One.AverageDistance);
}

TEST(Metrics, RejectsOutOfRangeRepresentativeInEveryBuild) {
  Csr G = hypercube(3);
  EXPECT_THROW(vertexTransitiveStats(G, 8), std::invalid_argument);
  EXPECT_THROW(vertexTransitiveStats(G, UINT32_MAX), std::invalid_argument);
  EXPECT_THROW(vertexTransitiveStats(Csr(0, ArcList{})),
               std::invalid_argument);
  EXPECT_EQ(vertexTransitiveStats(G, 7).Diameter, 3u);
}

TEST(Metrics, MeshDiameter) {
  DistanceStats Stats = msAllPairsStats(mesh2D(3, 4));
  EXPECT_TRUE(Stats.Connected);
  EXPECT_EQ(Stats.Diameter, 2u + 3u);
}

TEST(Classic, HypercubeCounts) {
  Csr G = hypercube(5);
  EXPECT_EQ(G.numNodes(), 32u);
  EXPECT_EQ(G.numEdges(), 2u * 80);
  EXPECT_TRUE(oracle::isRegular(G));
  EXPECT_TRUE(oracle::isUndirected(G));
}

TEST(Classic, Mesh2DCounts) {
  Csr G = mesh2D(4, 6);
  EXPECT_EQ(G.numNodes(), 24u);
  // Edges: 4*5 horizontal + 3*6 vertical.
  EXPECT_EQ(G.numEdges(), 2u * (20 + 18));
}

TEST(Classic, MixedRadixMeshMatches2D) {
  Csr A = mixedRadixMesh({4, 6});
  Csr B = mesh2D(4, 6);
  ASSERT_EQ(A.numNodes(), B.numNodes());
  EXPECT_EQ(A.numEdges(), B.numEdges());
  for (NodeId U = 0; U != A.numNodes(); ++U)
    for (NodeId V : A.neighbors(U))
      EXPECT_TRUE(oracle::hasArc(B, U, V));
}

TEST(Classic, MixedRadixCoordsRoundTrip) {
  std::vector<unsigned> Dims{2, 3, 4};
  for (uint64_t Id = 0; Id != 24; ++Id)
    EXPECT_EQ(mixedRadixId(mixedRadixCoords(Id, Dims), Dims), Id);
}

TEST(Classic, OversizedBuildersThrowBeforeAllocating) {
  // 65,536 x 65,537 nodes wrap a 32-bit product to 65,536; every builder
  // rejects more than 2^31 nodes (and zero extents) before it allocates.
  EXPECT_THROW(mesh2D(65536, 65537), std::invalid_argument);
  EXPECT_THROW(mesh2D(0, 4), std::invalid_argument);
  EXPECT_THROW(hypercube(31), std::invalid_argument);
  EXPECT_THROW(hypercube(64), std::invalid_argument);
  EXPECT_THROW(completeBinaryTree(30), std::invalid_argument);
  EXPECT_THROW(mixedRadixMesh({65536, 65536}), std::invalid_argument);
  EXPECT_THROW(mixedRadixMesh({4, 0, 4}), std::invalid_argument);
  EXPECT_THROW(mixedRadixMesh(std::vector<unsigned>(40, 3)),
               std::invalid_argument);
}

TEST(Classic, CompleteBinaryTreeShape) {
  Csr G = completeBinaryTree(4);
  EXPECT_EQ(G.numNodes(), 31u);
  EXPECT_EQ(G.numEdges(), 2u * 30);
  DistanceStats Stats = msAllPairsStats(G);
  EXPECT_EQ(Stats.Diameter, 8u); // leaf to leaf across the root.
}

namespace {

/// FNV-1a over the node count and every row, in order: any change to a
/// row's length, contents or neighbor order changes the hash.
template <typename GraphT> uint64_t rowHash(const GraphT &G) {
  uint64_t H = 14695981039346656037ull;
  auto Mix = [&H](uint64_t X) {
    H ^= X;
    H *= 1099511628211ull;
  };
  Mix(G.numNodes());
  for (NodeId V = 0; V != G.numNodes(); ++V) {
    Mix(G.neighbors(V).size());
    for (NodeId W : G.neighbors(V))
      Mix(W);
  }
  return H;
}

} // namespace

// Pins every row, in order, of the classic builders and the materialized
// networks. The hashes were taken from the adjacency-list builds, so every
// result computed over these graphs depends on the same neighbor order.
TEST(CsrRows, SameAdjacencyAsGraph) {
  EXPECT_EQ(rowHash(hypercube(4)), 1392556339282513183ull);
  EXPECT_EQ(rowHash(mesh2D(3, 5)), 4215959962362555102ull);
  EXPECT_EQ(rowHash(mixedRadixMesh({2, 3, 4})), 11336198449626689953ull);
  EXPECT_EQ(rowHash(completeBinaryTree(4)), 5805703716175184915ull);
  EXPECT_EQ(rowHash(ExplicitScg(SuperCayleyGraph::star(5)).toCsr()),
            13496157583630868055ull);
  EXPECT_EQ(rowHash(ExplicitScg(SuperCayleyGraph::create(
                                    NetworkKind::MacroStar, 2, 2))
                        .toCsr()),
            6129562707717654127ull);
  EXPECT_EQ(rowHash(ExplicitScg(SuperCayleyGraph::rotator(5)).toCsr()),
            13923342815055468639ull);
}
