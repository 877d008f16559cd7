//===- tests/ClustersTest.cpp - Modular structure tests ------------------===//

#include "networks/Clusters.h"

#include "graph/Metrics.h"
#include "perm/Lehmer.h"

#include "Oracles.h"

#include <gtest/gtest.h>

using namespace scg;

TEST(Clusters, CountsMatchFactorials) {
  // MS(2,2): k = 5, clusters of (n+1)! = 6 nodes, 5!/3! = 20 clusters.
  ExplicitScg Net(SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2));
  ClusterStructure C(Net);
  EXPECT_EQ(C.clusterSize(), 6u);
  EXPECT_EQ(C.numClusters(), 20u);
}

TEST(Clusters, NucleusLinksStayInside) {
  for (NetworkKind Kind :
       {NetworkKind::MacroStar, NetworkKind::CompleteRotationStar,
        NetworkKind::MacroIS}) {
    ExplicitScg Net(SuperCayleyGraph::create(Kind, 2, 2));
    ClusterStructure C(Net);
    for (NodeId U = 0; U != Net.numNodes(); ++U)
      for (GenIndex G = 0; G != Net.degree(); ++G) {
        bool SameCluster = C.clusterOf(U) == C.clusterOf(Net.next(U, G));
        EXPECT_EQ(SameCluster, oracle::isIntraCluster(Net, G))
            << networkKindName(Kind) << " node " << U << " gen " << G;
      }
  }
}

TEST(Clusters, ClusterGraphIsConnected) {
  ExplicitScg Net(SuperCayleyGraph::create(NetworkKind::MacroStar, 3, 2));
  ClusterStructure C(Net);
  Csr Quotient = oracle::clusterGraph(Net, C);
  EXPECT_EQ(Quotient.numNodes(), C.numClusters());
  EXPECT_TRUE(oracle::isConnectedFromZero(Quotient));
}

TEST(Clusters, ClusterGraphIsUndirectedForMs) {
  ExplicitScg Net(SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2));
  Csr Quotient = oracle::clusterGraph(Net, ClusterStructure(Net));
  EXPECT_TRUE(oracle::isUndirected(Quotient));
}

TEST(Clusters, EveryClusterIsANucleusNetworkCopy) {
  // Within a cluster, the induced subgraph on nucleus links has (n+1)!
  // nodes and the nucleus network's degree.
  ExplicitScg Net(SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 3));
  ClusterStructure C(Net);
  // Count intra-cluster degree of a few nodes: n transpositions.
  for (NodeId U = 0; U < Net.numNodes(); U += 101) {
    unsigned Intra = 0;
    for (GenIndex G = 0; G != Net.degree(); ++G)
      if (C.clusterOf(Net.next(U, G)) == C.clusterOf(U))
        ++Intra;
    EXPECT_EQ(Intra, Net.network().ballsPerBox());
  }
}

TEST(Clusters, RotationClassesShareTheStructure) {
  ExplicitScg Net(
      SuperCayleyGraph::create(NetworkKind::CompleteRotationIS, 3, 2));
  ClusterStructure C(Net);
  EXPECT_EQ(C.clusterSize(), factorial(3));
  EXPECT_EQ(C.numClusters(), factorial(7) / factorial(3));
}
