//===- tests/ContainersTest.cpp - Node-disjoint container tests ----------===//

#include "graph/Containers.h"

#include "networks/Classic.h"
#include "networks/Explicit.h"

#include "Oracles.h"

#include <gtest/gtest.h>

using namespace scg;

namespace {

using EdgeList = std::vector<std::pair<NodeId, NodeId>>;

Csr pathGraph(NodeId N) {
  EdgeList Edges;
  for (NodeId I = 0; I + 1 != N; ++I)
    Edges.push_back({I, I + 1});
  return oracle::undirectedGraph(N, Edges);
}

Csr cycleGraph(NodeId N) {
  EdgeList Edges;
  for (NodeId I = 0; I != N; ++I)
    Edges.push_back({I, (I + 1) % N});
  return oracle::undirectedGraph(N, Edges);
}

Csr completeGraph(NodeId N) {
  EdgeList Edges;
  for (NodeId A = 0; A != N; ++A)
    for (NodeId B = A + 1; B != N; ++B)
      Edges.push_back({A, B});
  return oracle::undirectedGraph(N, Edges);
}

/// Full container validity: every path simple in G, the set internally
/// disjoint, and the first path a shortest Src -> Dst path.
void expectValidContainer(const Csr &G, NodeId Src, NodeId Dst,
                          const std::vector<std::vector<NodeId>> &Paths) {
  EXPECT_TRUE(internallyNodeDisjoint(Paths));
  for (const std::vector<NodeId> &Path : Paths) {
    EXPECT_TRUE(isSimplePath(G, Path));
    EXPECT_EQ(Path.front(), Src);
    EXPECT_EQ(Path.back(), Dst);
  }
  ASSERT_FALSE(Paths.empty());
  EXPECT_EQ(Paths.front().size() - 1, oracle::bfs(G, Src).Distance[Dst]);
  for (size_t I = 0; I + 1 < Paths.size(); ++I)
    EXPECT_LE(Paths[I].size(), Paths[I + 1].size());
}

} // namespace

TEST(Containers, PathGraphHasOnePath) {
  Csr G = pathGraph(4);
  EXPECT_EQ(localConnectivity(G, 0, 3), 1u);
  std::vector<std::vector<NodeId>> Paths = nodeDisjointPaths(G, 0, 3);
  ASSERT_EQ(Paths.size(), 1u);
  EXPECT_EQ(Paths[0], (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(Containers, CycleHasTwoPaths) {
  Csr G = cycleGraph(6);
  EXPECT_EQ(localConnectivity(G, 0, 3), 2u);
  std::vector<std::vector<NodeId>> Paths = nodeDisjointPaths(G, 0, 3);
  ASSERT_EQ(Paths.size(), 2u);
  expectValidContainer(G, 0, 3, Paths);
  // Both arcs of the cycle, each of length 3.
  EXPECT_EQ(Paths[0].size(), 4u);
  EXPECT_EQ(Paths[1].size(), 4u);
}

TEST(Containers, AdjacentPairInCycle) {
  Csr G = cycleGraph(5);
  std::vector<std::vector<NodeId>> Paths = nodeDisjointPaths(G, 0, 1);
  ASSERT_EQ(Paths.size(), 2u);
  expectValidContainer(G, 0, 1, Paths);
  EXPECT_EQ(Paths[0].size(), 2u); // the direct edge.
  EXPECT_EQ(Paths[1].size(), 5u); // the long way round.
}

TEST(Containers, CompleteGraphSaturatesDegree) {
  Csr G = completeGraph(4);
  EXPECT_EQ(localConnectivity(G, 0, 3), 3u);
  std::vector<std::vector<NodeId>> Paths = nodeDisjointPaths(G, 0, 3);
  ASSERT_EQ(Paths.size(), 3u);
  expectValidContainer(G, 0, 3, Paths);
  EXPECT_EQ(Paths[0].size(), 2u); // direct edge first.
}

TEST(Containers, MaxPathsCapsTheContainer) {
  Csr G = completeGraph(5);
  std::vector<std::vector<NodeId>> Paths =
      nodeDisjointPaths(G, 0, 4, /*MaxPaths=*/2);
  ASSERT_EQ(Paths.size(), 2u);
  expectValidContainer(G, 0, 4, Paths);
}

TEST(Containers, MeshCornerPairs) {
  Csr G = mesh2D(3, 3);
  // Corners have degree 2, so corner-to-corner connectivity is 2.
  EXPECT_EQ(localConnectivity(G, 0, 8), 2u);
  expectValidContainer(G, 0, 8, nodeDisjointPaths(G, 0, 8));
  // Center-to-corner is still capped by the corner's degree.
  EXPECT_EQ(localConnectivity(G, 4, 0), 2u);
}

TEST(Containers, DirectedCycleRespectsOrientation) {
  Csr G(3, EdgeList{{0, 1}, {1, 2}, {2, 0}});
  std::vector<std::vector<NodeId>> Forward = nodeDisjointPaths(G, 0, 2);
  ASSERT_EQ(Forward.size(), 1u);
  EXPECT_EQ(Forward[0], (std::vector<NodeId>{0, 1, 2}));
  std::vector<std::vector<NodeId>> Back = nodeDisjointPaths(G, 2, 0);
  ASSERT_EQ(Back.size(), 1u);
  EXPECT_EQ(Back[0], (std::vector<NodeId>{2, 0}));
}

TEST(Containers, DisjointnessValidatorCatchesSharedInternals) {
  // Shares internal node 1.
  std::vector<std::vector<NodeId>> Shared{{0, 1, 3}, {0, 1, 3}};
  EXPECT_FALSE(internallyNodeDisjoint(Shared));
  // An internal node of one path equal to an endpoint of the container.
  std::vector<std::vector<NodeId>> ViaSrc{{0, 2, 3}, {0, 4, 0, 3}};
  EXPECT_FALSE(internallyNodeDisjoint(ViaSrc));
  // Mismatched endpoints are not a container.
  std::vector<std::vector<NodeId>> Endpoints{{0, 2, 3}, {0, 4, 5}};
  EXPECT_FALSE(internallyNodeDisjoint(Endpoints));
  std::vector<std::vector<NodeId>> Fine{{0, 2, 3}, {0, 4, 3}, {0, 3}};
  EXPECT_TRUE(internallyNodeDisjoint(Fine));
}

TEST(Containers, ClassicCayleyFamiliesAreMaximallyConnected) {
  // Star, bubble-sort and transposition networks have vertex connectivity
  // equal to their degree (maximal fault tolerance); the container between
  // any pair must realize it.
  for (SuperCayleyGraph Spec :
       {SuperCayleyGraph::star(4), SuperCayleyGraph::bubbleSort(4),
        SuperCayleyGraph::transpositionNetwork(4)}) {
    ExplicitScg Net(Spec);
    Csr G = Net.toCsr();
    NodeId Src = 0, Dst = Net.numNodes() / 2;
    std::vector<std::vector<NodeId>> Paths = nodeDisjointPaths(G, Src, Dst);
    EXPECT_EQ(Paths.size(), Spec.degree()) << Spec.name();
    expectValidContainer(G, Src, Dst, Paths);
  }
  // The insertion-selection network is the exception: measured vertex
  // connectivity is degree - 1 (2k - 3), one below its degree 2k - 2.
  // Pin that so a max-flow regression in either direction is caught.
  for (unsigned K = 3; K <= 4; ++K) {
    SuperCayleyGraph Spec = SuperCayleyGraph::insertionSelection(K);
    ExplicitScg Net(Spec);
    Csr G = Net.toCsr();
    NodeId Src = 0, Dst = Net.numNodes() / 2;
    std::vector<std::vector<NodeId>> Paths = nodeDisjointPaths(G, Src, Dst);
    EXPECT_EQ(Paths.size(), Spec.degree() - 1) << Spec.name();
    expectValidContainer(G, Src, Dst, Paths);
  }
}

TEST(Containers, AllTenSuperCayleyClassesYieldValidContainers) {
  for (NetworkKind Kind :
       {NetworkKind::MacroStar, NetworkKind::RotationStar,
        NetworkKind::CompleteRotationStar, NetworkKind::MacroRotator,
        NetworkKind::RotationRotator, NetworkKind::CompleteRotationRotator,
        NetworkKind::MacroIS, NetworkKind::RotationIS,
        NetworkKind::CompleteRotationIS}) {
    ExplicitScg Net(SuperCayleyGraph::create(Kind, 2, 2));
    Csr G = Net.toCsr();
    NodeId Src = 0, Dst = Net.numNodes() / 2;
    std::vector<std::vector<NodeId>> Paths = nodeDisjointPaths(G, Src, Dst);
    // Degree bounds the container; at least one path exists (connected).
    EXPECT_GE(Paths.size(), 1u) << networkKindName(Kind);
    EXPECT_LE(Paths.size(), Net.degree()) << networkKindName(Kind);
    expectValidContainer(G, Src, Dst, Paths);
  }
  // The plain rotator's directed connectivity is k-1 exactly.
  ExplicitScg Rotator(SuperCayleyGraph::rotator(4));
  Csr G = Rotator.toCsr();
  EXPECT_EQ(localConnectivity(G, 0, Rotator.numNodes() / 2), 3u);
}
