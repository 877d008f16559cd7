//===- tests/NetworksTest.cpp - Explicit network materialization ---------===//

#include "networks/Explicit.h"

#include "graph/Metrics.h"
#include "perm/Lehmer.h"

#include "Oracles.h"

#include <gtest/gtest.h>

using namespace scg;

TEST(ExplicitScg, RankZeroIsIdentity) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  EXPECT_TRUE(Net.label(0).isIdentity());
  EXPECT_EQ(Net.rankOf(Permutation::identity(4)), 0u);
}

TEST(ExplicitScg, NeighborsMatchDescriptor) {
  SuperCayleyGraph Ms = SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2);
  ExplicitScg Net(Ms);
  for (NodeId U = 0; U < Net.numNodes(); U += 7) {
    Permutation Label = Net.label(U);
    for (GenIndex G = 0; G != Net.degree(); ++G)
      EXPECT_EQ(Net.label(Net.next(U, G)), Ms.neighbor(Label, G));
  }
}

TEST(ExplicitScg, GraphViewIsRegularAndConnected) {
  for (NetworkKind Kind :
       {NetworkKind::MacroStar, NetworkKind::CompleteRotationStar,
        NetworkKind::MacroIS, NetworkKind::RotationStar}) {
    SuperCayleyGraph Scg = SuperCayleyGraph::create(Kind, 2, 2);
    ExplicitScg Net(Scg);
    Graph G = Net.toGraph();
    EXPECT_TRUE(oracle::isRegular(G)) << Scg.name();
    EXPECT_TRUE(oracle::isConnectedFromZero(G)) << Scg.name();
  }
}

TEST(ExplicitScg, UndirectedKindsYieldUndirectedGraphs) {
  SuperCayleyGraph Scg = SuperCayleyGraph::create(NetworkKind::MacroIS, 3, 1);
  Graph G = ExplicitScg(Scg).toGraph();
  EXPECT_TRUE(oracle::isUndirected(G));
}

TEST(ExplicitScg, DirectedRotatorIsStillStronglyConnected) {
  SuperCayleyGraph Mr =
      SuperCayleyGraph::create(NetworkKind::MacroRotator, 2, 2);
  Graph G = ExplicitScg(Mr).toGraph();
  EXPECT_FALSE(oracle::isUndirected(G));
  EXPECT_TRUE(oracle::isConnectedFromZero(G));
}

TEST(ExplicitScg, StarDiameterMatchesKnownFormula) {
  // diameter(k-star) = floor(3(k-1)/2) [1].
  for (unsigned K = 3; K <= 7; ++K) {
    ExplicitScg Net(SuperCayleyGraph::star(K));
    DistanceStats Stats = vertexTransitiveStats(Net.toGraph());
    EXPECT_EQ(Stats.Diameter, 3 * (K - 1) / 2) << "k=" << K;
  }
}

TEST(ExplicitScg, BubbleSortDiameterIsKChoose2) {
  for (unsigned K = 3; K <= 6; ++K) {
    ExplicitScg Net(SuperCayleyGraph::bubbleSort(K));
    DistanceStats Stats = vertexTransitiveStats(Net.toGraph());
    EXPECT_EQ(Stats.Diameter, K * (K - 1) / 2) << "k=" << K;
  }
}

TEST(ExplicitScg, TranspositionNetworkDiameterIsKMinus1) {
  // k-TN has diameter k - 1 [12].
  for (unsigned K = 3; K <= 6; ++K) {
    ExplicitScg Net(SuperCayleyGraph::transpositionNetwork(K));
    DistanceStats Stats = vertexTransitiveStats(Net.toGraph());
    EXPECT_EQ(Stats.Diameter, K - 1) << "k=" << K;
  }
}

TEST(ExplicitScg, VertexTransitivitySpotCheck) {
  // Eccentricity equal from several representatives (Cayley graphs are
  // vertex-transitive, Section 2.1).
  SuperCayleyGraph Scg =
      SuperCayleyGraph::create(NetworkKind::CompleteRotationIS, 2, 2);
  Graph G = ExplicitScg(Scg).toGraph();
  DistanceStats FromZero = vertexTransitiveStats(G, 0);
  for (NodeId Rep : {7u, 42u, 99u, 111u}) {
    DistanceStats Stats = vertexTransitiveStats(G, Rep);
    EXPECT_EQ(Stats.Diameter, FromZero.Diameter);
    EXPECT_DOUBLE_EQ(Stats.AverageDistance, FromZero.AverageDistance);
  }
}

TEST(ExplicitScg, AllTenClassesMaterializeAtSevenSymbols) {
  for (NetworkKind Kind :
       {NetworkKind::MacroStar, NetworkKind::RotationStar,
        NetworkKind::CompleteRotationStar, NetworkKind::MacroRotator,
        NetworkKind::RotationRotator, NetworkKind::CompleteRotationRotator,
        NetworkKind::MacroIS, NetworkKind::RotationIS,
        NetworkKind::CompleteRotationIS}) {
    SuperCayleyGraph Scg = SuperCayleyGraph::create(Kind, 3, 2);
    ExplicitScg Net(Scg);
    EXPECT_EQ(Net.numNodes(), factorial(7)) << Scg.name();
    EXPECT_TRUE(oracle::isConnectedFromZero(Net.toGraph())) << Scg.name();
  }
}
