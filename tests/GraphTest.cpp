//===- tests/GraphTest.cpp - Graph container and algorithm tests ---------===//

#include "graph/Graph.h"

#include "graph/Bfs.h"
#include "graph/Metrics.h"
#include "networks/Classic.h"

#include "Oracles.h"

#include <gtest/gtest.h>

using namespace scg;

TEST(Graph, EdgesAndDegrees) {
  Graph G(4);
  G.addUndirectedEdge(0, 1);
  G.addEdge(2, 3);
  EXPECT_EQ(G.numDirectedEdges(), 3u);
  EXPECT_EQ(G.outDegree(0), 1u);
  EXPECT_TRUE(G.hasEdge(2, 3));
  EXPECT_FALSE(G.hasEdge(3, 2));
  EXPECT_FALSE(oracle::isUndirected(G));
  EXPECT_FALSE(oracle::isRegular(G));
}

TEST(Graph, UndirectedDetection) {
  Graph G(3);
  G.addUndirectedEdge(0, 1);
  G.addUndirectedEdge(1, 2);
  EXPECT_TRUE(oracle::isUndirected(G));
}

TEST(Bfs, PathGraphDistances) {
  Graph G(5);
  for (NodeId I = 0; I + 1 != 5; ++I)
    G.addUndirectedEdge(I, I + 1);
  BfsResult R = bfs(G, 0);
  for (NodeId I = 0; I != 5; ++I)
    EXPECT_EQ(R.Distance[I], I);
  EXPECT_EQ(R.Eccentricity, 4u);
  EXPECT_EQ(R.NumReached, 5u);
  EXPECT_EQ(R.DistanceSum, 1u + 2 + 3 + 4);
}

TEST(Bfs, ParentsFormShortestPathTree) {
  Graph G = mesh2D(3, 3);
  BfsResult R = bfs(G, 0);
  for (NodeId V = 1; V != G.numNodes(); ++V)
    EXPECT_EQ(R.Distance[V], R.Distance[R.Parent[V]] + 1);
}

TEST(Bfs, DisconnectedMarksUnreachable) {
  Graph G(4);
  G.addUndirectedEdge(0, 1);
  G.addUndirectedEdge(2, 3);
  BfsResult R = bfs(G, 0);
  EXPECT_EQ(R.Distance[2], UnreachableDistance);
  EXPECT_EQ(R.NumReached, 2u);
  EXPECT_FALSE(oracle::isConnectedFromZero(G));
}

TEST(Metrics, HypercubeDiameterEqualsDimension) {
  for (unsigned D = 1; D <= 6; ++D) {
    Graph G = hypercube(D);
    DistanceStats Stats = vertexTransitiveStats(G);
    EXPECT_TRUE(Stats.Connected);
    EXPECT_EQ(Stats.Diameter, D);
  }
}

TEST(Metrics, AllPairsMatchesTransitiveOnHypercube) {
  Graph G = hypercube(4);
  DistanceStats All = allPairsStats(G);
  DistanceStats One = vertexTransitiveStats(G);
  EXPECT_EQ(All.Diameter, One.Diameter);
  EXPECT_DOUBLE_EQ(All.AverageDistance, One.AverageDistance);
}

TEST(Metrics, MeshDiameter) {
  DistanceStats Stats = allPairsStats(mesh2D(3, 4));
  EXPECT_TRUE(Stats.Connected);
  EXPECT_EQ(Stats.Diameter, 2u + 3u);
}

TEST(Classic, HypercubeCounts) {
  Graph G = hypercube(5);
  EXPECT_EQ(G.numNodes(), 32u);
  EXPECT_EQ(G.numDirectedEdges(), 2u * 80);
  EXPECT_TRUE(oracle::isRegular(G));
  EXPECT_TRUE(oracle::isUndirected(G));
}

TEST(Classic, Mesh2DCounts) {
  Graph G = mesh2D(4, 6);
  EXPECT_EQ(G.numNodes(), 24u);
  // Edges: 4*5 horizontal + 3*6 vertical.
  EXPECT_EQ(G.numDirectedEdges(), 2u * (20 + 18));
}

TEST(Classic, MixedRadixMeshMatches2D) {
  Graph A = mixedRadixMesh({4, 6});
  Graph B = mesh2D(4, 6);
  ASSERT_EQ(A.numNodes(), B.numNodes());
  EXPECT_EQ(A.numDirectedEdges(), B.numDirectedEdges());
  for (NodeId U = 0; U != A.numNodes(); ++U)
    for (NodeId V : A.neighbors(U))
      EXPECT_TRUE(B.hasEdge(U, V));
}

TEST(Classic, MixedRadixCoordsRoundTrip) {
  std::vector<unsigned> Dims{2, 3, 4};
  for (uint64_t Id = 0; Id != 24; ++Id)
    EXPECT_EQ(mixedRadixId(mixedRadixCoords(Id, Dims), Dims), Id);
}

TEST(Classic, CompleteBinaryTreeShape) {
  Graph G = completeBinaryTree(4);
  EXPECT_EQ(G.numNodes(), 31u);
  EXPECT_EQ(G.numDirectedEdges(), 2u * 30);
  DistanceStats Stats = allPairsStats(G);
  EXPECT_EQ(Stats.Diameter, 8u); // leaf to leaf across the root.
}
