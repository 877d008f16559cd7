//===- tests/CommTest.cpp - Simulator, MNB, and TE tests -----------------===//

#include "comm/Mnb.h"
#include "comm/Simulator.h"
#include "comm/TotalExchange.h"

#include "graph/Metrics.h"

#include "Oracles.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

using namespace scg;
using oracle::commModelName;

TEST(Simulator, SinglePacketTravelsItsRoute) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  NetworkSimulator Sim(Net, CommModel::AllPort);
  Sim.injectPacket(0, {0, 1, 0}); // three hops.
  SimulationResult R = Sim.run(100);
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.Steps, 3u);
  EXPECT_EQ(R.Delivered, 1u);
  EXPECT_EQ(R.Transmissions, 3u);
}

TEST(Simulator, EmptyRouteDeliversInstantly) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  NetworkSimulator Sim(Net, CommModel::AllPort);
  Sim.injectPacket(0, {});
  SimulationResult R = Sim.run(10);
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.Steps, 0u);
}

TEST(Simulator, ContendingPacketsSerializeOnALink) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  NetworkSimulator Sim(Net, CommModel::AllPort);
  // Four packets from node 0 over the same first link.
  for (int I = 0; I != 4; ++I)
    Sim.injectPacket(0, {0});
  SimulationResult R = Sim.run(100);
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.Steps, 4u); // one per step through the single link.
  EXPECT_EQ(R.MaxQueueLength, 4u); // the initial burst, sampled pre-step.
}

TEST(Simulator, SinglePortUsesOneLinkPerNodePerStep) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  NetworkSimulator Sim(Net, CommModel::SinglePort);
  // Two packets on two different links of node 0: all-port would finish in
  // one step, single-port needs two.
  Sim.injectPacket(0, {0});
  Sim.injectPacket(0, {1});
  SimulationResult R = Sim.run(100);
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.Steps, 2u);
}

TEST(Simulator, SingleDimensionHonorsCycle) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  NetworkSimulator Sim(Net, CommModel::SingleDimension);
  Sim.setDimensionCycle({2, 0});
  // A packet needing link 0 must wait for step 2 of the cycle.
  Sim.injectPacket(0, {0});
  SimulationResult R = Sim.run(100);
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.Steps, 2u);
}

TEST(Simulator, StepCapReportsIncomplete) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  NetworkSimulator Sim(Net, CommModel::AllPort);
  for (int I = 0; I != 10; ++I)
    Sim.injectPacket(0, {0});
  SimulationResult R = Sim.run(3);
  EXPECT_FALSE(R.Completed);
  EXPECT_EQ(R.Delivered, 3u);
}

TEST(BroadcastTreeTest, CoversNetworkAtBfsDepth) {
  ExplicitScg Net(SuperCayleyGraph::star(5));
  BroadcastTree Tree(Net);
  EXPECT_EQ(Tree.numEdges(), Net.numNodes() - 1);
  DistanceStats Stats = vertexTransitiveStats(Net.toCsr());
  EXPECT_EQ(Tree.height(), Stats.Diameter);
  EXPECT_EQ(Tree.depth(0), 0u);
}

// The broadcast tree's shape on classes CoversNetworkAtBfsDepth does not
// build.
TEST(Collectives, BroadcastHeightEqualsDiameter) {
  ExplicitScg Net(SuperCayleyGraph::insertionSelection(5));
  BroadcastTree Tree(Net);
  DistanceStats Stats = vertexTransitiveStats(Net.toCsr());
  EXPECT_EQ(Tree.height(), Stats.Diameter);
}

TEST(Collectives, TreePathsReachTheirNodes) {
  // Walking the child links from the root reaches every node exactly once,
  // one level deeper per hop.
  ExplicitScg Net(SuperCayleyGraph::create(NetworkKind::MacroIS, 2, 2));
  BroadcastTree Tree(Net);
  std::vector<bool> Reached(Net.numNodes(), false);
  std::vector<NodeId> Frontier = {0};
  Reached[0] = true;
  uint64_t Count = 1;
  while (!Frontier.empty()) {
    NodeId W = Frontier.back();
    Frontier.pop_back();
    for (GenIndex G : Tree.children(W)) {
      NodeId V = Net.next(W, G);
      ASSERT_FALSE(Reached[V]) << V;
      EXPECT_EQ(Tree.depth(V), Tree.depth(W) + 1) << V;
      Reached[V] = true;
      ++Count;
      Frontier.push_back(V);
    }
  }
  EXPECT_EQ(Count, Net.numNodes());
}

TEST(Mnb, LowerBoundFormula) {
  EXPECT_EQ(mnbLowerBound(120, 4), 30u);
  EXPECT_EQ(mnbLowerBound(121, 4), 30u);
  EXPECT_EQ(mnbLowerBound(122, 4), 31u);
}

TEST(Mnb, CompletesOnStar5) {
  ExplicitScg Net(SuperCayleyGraph::star(5));
  BroadcastTree Tree(Net);
  MnbResult R = simulateMnb(Net, Tree);
  EXPECT_EQ(R.Deliveries, Net.numNodes() * (Net.numNodes() - 1));
  EXPECT_GE(R.Steps, R.LowerBound);
  EXPECT_LE(R.Ratio, 4.0); // within a small constant of optimal.
}

TEST(Mnb, CompletesOnMacroStar22) {
  ExplicitScg Net(SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2));
  BroadcastTree Tree(Net);
  MnbResult R = simulateMnb(Net, Tree);
  EXPECT_EQ(R.Deliveries, Net.numNodes() * (Net.numNodes() - 1));
  EXPECT_LE(R.Ratio, 4.0);
}

TEST(Mnb, CompletesOnInsertionSelection5) {
  ExplicitScg Net(SuperCayleyGraph::insertionSelection(5));
  BroadcastTree Tree(Net);
  MnbResult R = simulateMnb(Net, Tree);
  EXPECT_EQ(R.Deliveries, Net.numNodes() * (Net.numNodes() - 1));
  EXPECT_LE(R.Ratio, 4.0);
}

TEST(Mnb, PinnedStepsOn120NodeNetworks) {
  // The bench_mnb E6 (all-port) and E6b (single-dimension) rows of the
  // 120-node networks.
  struct Pin {
    SuperCayleyGraph Host;
    uint64_t AllPort, SingleDimension;
  };
  for (const Pin &P :
       {Pin{SuperCayleyGraph::star(5), 36, 141},
        Pin{SuperCayleyGraph::insertionSelection(5), 26, 208},
        Pin{SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2), 46,
            138}}) {
    ExplicitScg Net(P.Host);
    BroadcastTree Tree(Net);
    EXPECT_EQ(simulateMnb(Net, Tree).Steps, P.AllPort) << P.Host.name();
    MnbResult Sdc = simulateMnbSdc(Net, Tree);
    EXPECT_EQ(Sdc.Steps, P.SingleDimension) << P.Host.name();
    EXPECT_EQ(Sdc.LowerBound, Net.numNodes() - 1) << P.Host.name();
  }
}

TEST(Mnb, SdcCycleNamingNoGeneratorThrows) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  BroadcastTree Tree(Net);
  EXPECT_THROW(simulateMnbSdc(Net, Tree, {0, 1, 2, Net.degree()}),
               std::invalid_argument);
}

TEST(Mnb, SdcCycleOmittingATreeGeneratorThrows) {
  // Tokens bound for the omitted generator's links would never move.
  ExplicitScg Net(SuperCayleyGraph::star(4));
  BroadcastTree Tree(Net);
  EXPECT_THROW(simulateMnbSdc(Net, Tree, {0, 1}), std::invalid_argument);
}

TEST(TotalExchange, LowerBoundUsesAverageDistance) {
  ExplicitScg Net(SuperCayleyGraph::star(5));
  DistanceStats Stats = vertexTransitiveStats(Net.toCsr());
  uint64_t ExpectedHops = uint64_t(
      Stats.AverageDistance * (Net.numNodes() - 1) + 0.5);
  EXPECT_EQ(teLowerBound(Net), (ExpectedHops + 3) / 4);
}

namespace {

/// A total exchange's pinned outcome: exact completion, bandwidth bound and
/// total route hops (AverageRouteLength * (N - 1)), plus the ratio ceiling.
struct TeGolden {
  SuperCayleyGraph Host;
  uint64_t Steps, LowerBound, HopTotal;
  double MaxRatio;
};

void expectTeGoldens(const std::vector<TeGolden> &Cases) {
  for (const TeGolden &C : Cases) {
    ExplicitScg Net(C.Host);
    TeResult R = simulateTotalExchange(Net);
    uint64_t N = Net.numNodes();
    EXPECT_EQ(R.Packets, N * (N - 1)) << C.Host.name();
    EXPECT_EQ(R.Steps, C.Steps) << C.Host.name();
    EXPECT_EQ(R.LowerBound, C.LowerBound) << C.Host.name();
    EXPECT_DOUBLE_EQ(R.AverageRouteLength, double(C.HopTotal) / double(N - 1))
        << C.Host.name();
    EXPECT_GE(R.Steps, R.LowerBound) << C.Host.name();
    EXPECT_LE(R.Ratio, C.MaxRatio) << C.Host.name();
  }
}

} // namespace

TEST(TotalExchange, CompletesOnStar5) {
  expectTeGoldens({{SuperCayleyGraph::star(5), 132, 111, 442, 6.0}});
}

// The (2,2) hosts with star-emulation templates: MS, complete-RS (same
// templates, same numbers) and MIS.
TEST(TotalExchange, CompletesOnMacroStar22) {
  expectTeGoldens(
      {{SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2), 396, 192, 838,
        8.0},
       {SuperCayleyGraph::create(NetworkKind::CompleteRotationStar, 2, 2), 396,
        192, 838, 8.0},
       {SuperCayleyGraph::create(NetworkKind::MacroIS, 2, 2), 396, 100, 1046,
        8.0}});
}

TEST(TotalExchange, CompletesOnIs5) {
  expectTeGoldens(
      {{SuperCayleyGraph::insertionSelection(5), 132, 42, 752, 6.0}});
}

TEST(TotalExchange, RejectsHostsWithoutTableFreeRoutes) {
  for (NetworkKind Kind :
       {NetworkKind::MacroRotator, NetworkKind::RotationRotator,
        NetworkKind::CompleteRotationRotator}) {
    ExplicitScg Net(SuperCayleyGraph::create(Kind, 2, 2));
    EXPECT_THROW(simulateTotalExchange(Net), std::invalid_argument)
        << Net.network().name();
  }
}

TEST(CommModelNames, AreStable) {
  EXPECT_EQ(commModelName(CommModel::AllPort), "all-port");
  EXPECT_EQ(commModelName(CommModel::SinglePort), "single-port");
  EXPECT_EQ(commModelName(CommModel::SingleDimension), "single-dimension");
}
