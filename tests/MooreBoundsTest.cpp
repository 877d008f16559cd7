//===- tests/MooreBoundsTest.cpp - Degree-diameter bound tests -----------===//

#include "graph/MooreBounds.h"

#include "graph/Metrics.h"
#include "networks/Explicit.h"

#include <gtest/gtest.h>

using namespace scg;

TEST(MooreBounds, BallSizes) {
  // Undirected degree 3: 1, 1+3, 1+3+6, 1+3+6+12.
  EXPECT_EQ(mooreBallSize(3, 0, false), 1u);
  EXPECT_EQ(mooreBallSize(3, 1, false), 4u);
  EXPECT_EQ(mooreBallSize(3, 2, false), 10u);
  EXPECT_EQ(mooreBallSize(3, 3, false), 22u);
  // Directed degree 2: 1, 3, 7, 15.
  EXPECT_EQ(mooreBallSize(2, 3, true), 15u);
}

TEST(MooreBounds, DegreeOneIsAPath) {
  // Undirected degree 1: ball never exceeds 2.
  EXPECT_EQ(mooreBallSize(1, 5, false), 2u);
}

TEST(MooreBounds, DiameterBoundOnKnownGraphs) {
  // The Petersen graph meets the Moore bound: 10 nodes, degree 3,
  // diameter 2.
  EXPECT_EQ(mooreDiameterLowerBound(3, 10, false), 2u);
  // Complete graph: diameter 1.
  EXPECT_EQ(mooreDiameterLowerBound(4, 5, false), 1u);
  // Single node: 0.
  EXPECT_EQ(mooreDiameterLowerBound(3, 1, false), 0u);
}

TEST(MooreBounds, DiameterBoundIsValidOnAllClasses) {
  for (NetworkKind Kind :
       {NetworkKind::MacroStar, NetworkKind::RotationStar,
        NetworkKind::CompleteRotationStar, NetworkKind::MacroIS}) {
    SuperCayleyGraph Scg = SuperCayleyGraph::create(Kind, 3, 2);
    ExplicitScg Net(Scg);
    DistanceStats Stats = vertexTransitiveStats(Net.toCsr());
    unsigned Bound = mooreDiameterLowerBound(Scg.degree(), Net.numNodes(),
                                             !Scg.isUndirected());
    EXPECT_LE(Bound, Stats.Diameter) << Scg.name();
  }
}

TEST(MooreBounds, StarDiameterWithinSmallFactorOfBound) {
  // The star graph's diameter floor(3(k-1)/2) is within a small factor of
  // DL(k-1, k!) -- the "optimal diameter given degree" claim.
  for (unsigned K = 4; K <= 7; ++K) {
    SuperCayleyGraph Star = SuperCayleyGraph::star(K);
    unsigned Diameter = 3 * (K - 1) / 2;
    unsigned Bound =
        mooreDiameterLowerBound(Star.degree(), Star.numNodes(), false);
    EXPECT_GE(Bound, 1u);
    EXPECT_LE(Diameter, 3 * Bound) << "k=" << K;
  }
}

TEST(MooreBounds, MeanDistanceBoundIsValid) {
  for (NetworkKind Kind :
       {NetworkKind::MacroStar, NetworkKind::CompleteRotationIS}) {
    SuperCayleyGraph Scg = SuperCayleyGraph::create(Kind, 3, 2);
    ExplicitScg Net(Scg);
    DistanceStats Stats = vertexTransitiveStats(Net.toCsr());
    double Bound = mooreMeanDistanceLowerBound(
        Scg.degree(), Net.numNodes(), !Scg.isUndirected());
    EXPECT_LE(Bound, Stats.AverageDistance + 1e-9) << Scg.name();
    EXPECT_GT(Bound, 1.0) << Scg.name();
  }
}

TEST(MooreBounds, MeanDistanceMonotoneInSize) {
  double Small = mooreMeanDistanceLowerBound(4, 100, false);
  double Large = mooreMeanDistanceLowerBound(4, 10000, false);
  EXPECT_LT(Small, Large);
}

TEST(MooreBounds, SaturationOnHugeRadii) {
  EXPECT_EQ(mooreBallSize(10, 64, true),
            std::numeric_limits<uint64_t>::max());
}
