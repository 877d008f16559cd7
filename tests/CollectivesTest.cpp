//===- tests/CollectivesTest.cpp - Broadcast/scatter/gather tests --------===//

#include "comm/Collectives.h"

#include "graph/Metrics.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

using namespace scg;

namespace {

struct Fixture {
  ExplicitScg Net;
  BroadcastTree Tree;
  explicit Fixture(SuperCayleyGraph Scg) : Net(std::move(Scg)), Tree(Net) {}
};

} // namespace

TEST(Collectives, AllPortBroadcastFinishesAtTreeHeight) {
  for (auto Scg : {SuperCayleyGraph::star(5),
                   SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2)}) {
    Fixture F(Scg);
    CollectiveResult R = simulateBroadcast(F.Net, F.Tree);
    EXPECT_EQ(R.Steps, F.Tree.height()) << Scg.name();
    EXPECT_DOUBLE_EQ(R.Ratio, 1.0) << Scg.name();
  }
}

TEST(Collectives, BroadcastHeightEqualsDiameter) {
  Fixture F(SuperCayleyGraph::insertionSelection(5));
  DistanceStats Stats = vertexTransitiveStats(F.Net.toGraph());
  CollectiveResult R = simulateBroadcast(F.Net, F.Tree);
  EXPECT_EQ(R.Steps, Stats.Diameter);
}

TEST(Collectives, SinglePortBroadcastIsSlowerButBounded) {
  Fixture F(SuperCayleyGraph::star(5));
  CollectiveResult AllPort = simulateBroadcast(F.Net, F.Tree);
  CollectiveResult OnePort =
      simulateBroadcast(F.Net, F.Tree, CommModel::SinglePort);
  EXPECT_GE(OnePort.Steps, AllPort.Steps);
  // A node forwards its <= degree children sequentially: at most a
  // degree-factor slowdown.
  EXPECT_LE(OnePort.Steps, AllPort.Steps * F.Net.degree());
}

TEST(Collectives, TreePathsReachTheirNodes) {
  Fixture F(SuperCayleyGraph::create(NetworkKind::MacroIS, 2, 2));
  for (NodeId W = 0; W < F.Net.numNodes(); W += 11) {
    NodeId At = 0;
    for (GenIndex G : F.Tree.pathFromRoot(W))
      At = F.Net.next(At, G);
    EXPECT_EQ(At, W);
  }
}

TEST(Collectives, ScatterMeetsSendBoundWithinConstant) {
  for (auto Scg : {SuperCayleyGraph::star(5),
                   SuperCayleyGraph::insertionSelection(5),
                   SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2)}) {
    Fixture F(Scg);
    CollectiveResult R = simulateScatter(F.Net, F.Tree);
    EXPECT_GE(R.Steps, R.LowerBound) << Scg.name();
    EXPECT_LE(R.Ratio, 3.0) << Scg.name();
  }
}

TEST(Collectives, GatherMeetsReceiveBoundWithinConstant) {
  for (auto Scg : {SuperCayleyGraph::star(5),
                   SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2)}) {
    Fixture F(Scg);
    CollectiveResult R = simulateGather(F.Net, F.Tree);
    EXPECT_GE(R.Steps, R.LowerBound) << Scg.name();
    EXPECT_LE(R.Ratio, 3.5) << Scg.name();
  }
}

TEST(Collectives, AllReduceSumsPhases) {
  Fixture F(SuperCayleyGraph::star(5));
  CollectiveResult Gather = simulateGather(F.Net, F.Tree);
  CollectiveResult Broadcast = simulateBroadcast(F.Net, F.Tree);
  CollectiveResult AllReduce = simulateAllReduce(F.Net, F.Tree);
  EXPECT_EQ(AllReduce.Steps, Gather.Steps + Broadcast.Steps);
  EXPECT_GE(AllReduce.Steps, AllReduce.LowerBound);
  EXPECT_LE(AllReduce.Ratio, 3.5);
}

TEST(Collectives, PinnedBroadcastAndAllReduceSteps) {
  struct Pin {
    SuperCayleyGraph Host;
    unsigned Rotation;
    uint64_t AllPort, SinglePort, AllReduce;
  };
  auto MS22 = SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2);
  for (const Pin &P : {Pin{SuperCayleyGraph::star(5), 0, 6, 11, 66},
                       Pin{SuperCayleyGraph::star(5), 1, 6, 13, 66},
                       Pin{SuperCayleyGraph::star(5), 2, 6, 13, 66},
                       Pin{SuperCayleyGraph::star(6), 0, 7, 18, 367},
                       Pin{SuperCayleyGraph::star(6), 1, 7, 19, 367},
                       Pin{SuperCayleyGraph::star(6), 2, 7, 19, 367},
                       Pin{MS22, 0, 8, 12, 60},
                       Pin{MS22, 1, 8, 11, 60},
                       Pin{MS22, 2, 8, 11, 54}}) {
    ExplicitScg Net(P.Host);
    BroadcastTree Tree(Net, P.Rotation);
    std::string Case = P.Host.name() + " rotation " +
                       std::to_string(P.Rotation);
    EXPECT_EQ(simulateBroadcast(Net, Tree).Steps, P.AllPort) << Case;
    EXPECT_EQ(simulateBroadcast(Net, Tree, CommModel::SinglePort).Steps,
              P.SinglePort)
        << Case;
    EXPECT_EQ(simulateAllReduce(Net, Tree).Steps, P.AllReduce) << Case;
  }
}

TEST(Collectives, SingleDimensionBroadcastThrows) {
  Fixture F(SuperCayleyGraph::star(4));
  EXPECT_THROW(simulateBroadcast(F.Net, F.Tree, CommModel::SingleDimension),
               std::invalid_argument);
}

TEST(Collectives, SingleDimensionAllReduceThrows) {
  Fixture F(SuperCayleyGraph::star(4));
  EXPECT_THROW(simulateAllReduce(F.Net, F.Tree, CommModel::SingleDimension),
               std::invalid_argument);
}

TEST(Collectives, GatherOnDirectedNetworkThrows) {
  Fixture F(SuperCayleyGraph::rotator(4));
  EXPECT_THROW(simulateGather(F.Net, F.Tree), std::invalid_argument);
}

TEST(Collectives, SinglePortScatterBoundIsNMinusOne) {
  Fixture F(SuperCayleyGraph::star(4));
  CollectiveResult R =
      simulateScatter(F.Net, F.Tree, CommModel::SinglePort);
  EXPECT_EQ(R.LowerBound, F.Net.numNodes() - 1);
  EXPECT_GE(R.Steps, R.LowerBound);
}
