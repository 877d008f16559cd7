//===- tests/FaultCampaignTest.cpp - Monte Carlo campaign tests ----------===//

#include "routing/FaultCampaign.h"

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

using namespace scg;

namespace {

FaultCampaignOptions smallOptions() {
  FaultCampaignOptions Opts;
  Opts.Rates = {0.0, 0.02, 0.05, 0.10, 0.30};
  Opts.Trials = 64;
  Opts.Seed = 42;
  Opts.RouterPairs = 4;
  return Opts;
}

void expectPointsEqual(const FaultRatePoint &A, const FaultRatePoint &B) {
  EXPECT_EQ(A.Rate, B.Rate);
  EXPECT_EQ(A.Trials, B.Trials);
  EXPECT_EQ(A.MeanFaultsInjected, B.MeanFaultsInjected);
  EXPECT_EQ(A.ConnectedTrials, B.ConnectedTrials);
  EXPECT_EQ(A.ConnectedFraction, B.ConnectedFraction);
  EXPECT_EQ(A.MeanReachability, B.MeanReachability);
  EXPECT_EQ(A.MeanDiameterInflation, B.MeanDiameterInflation);
  EXPECT_EQ(A.WorstDiameter, B.WorstDiameter);
  EXPECT_EQ(A.RoutesAttempted, B.RoutesAttempted);
  EXPECT_EQ(A.RoutesDelivered, B.RoutesDelivered);
  EXPECT_EQ(A.DeliveryFraction, B.DeliveryFraction);
  EXPECT_EQ(A.MeanHopOverhead, B.MeanHopOverhead);
  EXPECT_EQ(A.MeanPathsTried, B.MeanPathsTried);
}

} // namespace

TEST(FaultCampaign, ByteIdenticalAtEveryThreadCount) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  FaultCampaignOptions Opts = smallOptions();
  setGlobalThreadCount(1);
  FaultCampaignResult Serial = runFaultCampaign(Net, Opts);
  for (unsigned Threads : {2u, 8u}) {
    setGlobalThreadCount(Threads);
    FaultCampaignResult Parallel = runFaultCampaign(Net, Opts);
    EXPECT_EQ(Serial.FaultFreeDiameter, Parallel.FaultFreeDiameter);
    EXPECT_EQ(Serial.MeanContainerWidth, Parallel.MeanContainerWidth);
    ASSERT_EQ(Serial.Points.size(), Parallel.Points.size());
    for (size_t P = 0; P != Serial.Points.size(); ++P)
      expectPointsEqual(Serial.Points[P], Parallel.Points[P]);
  }
  setGlobalThreadCount(0);
}

TEST(FaultCampaign, ZeroRateIsFaultFree) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  FaultCampaignResult Result = runFaultCampaign(Net, smallOptions());
  const FaultRatePoint &Clean = Result.Points.front();
  EXPECT_EQ(Clean.Rate, 0.0);
  EXPECT_EQ(Clean.MeanFaultsInjected, 0.0);
  EXPECT_EQ(Clean.ConnectedFraction, 1.0);
  EXPECT_EQ(Clean.MeanReachability, 1.0);
  EXPECT_EQ(Clean.MeanDiameterInflation, 1.0);
  EXPECT_EQ(Clean.WorstDiameter, Result.FaultFreeDiameter);
  EXPECT_EQ(Clean.DeliveryFraction, 1.0);
  EXPECT_EQ(Clean.MeanHopOverhead, 0.0);
  EXPECT_EQ(Clean.MeanPathsTried, 1.0);
  // star(4) containers come from the generator construction, all width 3.
  EXPECT_EQ(Result.StarGeneratorContainers, 4u);
  EXPECT_EQ(Result.MaxFlowContainers, 0u);
  EXPECT_EQ(Result.MeanContainerWidth, 3.0);
}

TEST(FaultCampaign, CoupledSamplingMakesCurvesMonotone) {
  // Common random numbers nest the fault sets along the rate ladder, so
  // every survival metric is monotone per trial, hence in the mean.
  ExplicitScg Net(SuperCayleyGraph::star(4));
  FaultCampaignResult Result = runFaultCampaign(Net, smallOptions());
  for (size_t P = 0; P + 1 < Result.Points.size(); ++P) {
    const FaultRatePoint &Lo = Result.Points[P], &Hi = Result.Points[P + 1];
    EXPECT_LE(Lo.MeanFaultsInjected, Hi.MeanFaultsInjected);
    EXPECT_GE(Lo.ConnectedFraction, Hi.ConnectedFraction);
    EXPECT_GE(Lo.MeanReachability, Hi.MeanReachability);
    // Link faults never kill endpoints, so attempts are constant and
    // delivery is monotone trial by trial.
    EXPECT_EQ(Lo.RoutesAttempted, Hi.RoutesAttempted);
    EXPECT_GE(Lo.RoutesDelivered, Hi.RoutesDelivered);
  }
}

TEST(FaultCampaign, SaturationRateKillsEverything) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  FaultCampaignOptions Opts = smallOptions();
  Opts.Rates = {1.0};
  FaultCampaignResult Result = runFaultCampaign(Net, Opts);
  const FaultRatePoint &Point = Result.Points.front();
  EXPECT_EQ(Point.MeanFaultsInjected, double(Result.Components));
  EXPECT_EQ(Point.ConnectedFraction, 0.0);
  EXPECT_EQ(Point.MeanReachability, 0.0);
  EXPECT_EQ(Point.DeliveryFraction, 0.0);
  // Every path of every container was probed and failed on hop one.
  EXPECT_EQ(Point.MeanPathsTried, 3.0);
}

TEST(FaultCampaign, NodeFaultCampaignSkipsDeadEndpoints) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  FaultCampaignOptions Opts = smallOptions();
  Opts.NodeFaults = true;
  Opts.Rates = {0.0, 0.2, 1.0};
  FaultCampaignResult Result = runFaultCampaign(Net, Opts);
  EXPECT_EQ(Result.Components, Result.Nodes);
  const FaultRatePoint &Clean = Result.Points[0];
  EXPECT_EQ(Clean.RoutesAttempted,
            uint64_t(Opts.Trials) * Opts.RouterPairs);
  EXPECT_EQ(Clean.DeliveryFraction, 1.0);
  // Dead endpoints shrink the attempt pool rather than scoring misses.
  const FaultRatePoint &Mid = Result.Points[1];
  EXPECT_LT(Mid.RoutesAttempted, Clean.RoutesAttempted);
  const FaultRatePoint &Dead = Result.Points[2];
  EXPECT_EQ(Dead.RoutesAttempted, 0u);
  EXPECT_EQ(Dead.MeanReachability, 0.0);
  EXPECT_EQ(Dead.ConnectedFraction, 0.0);
}

TEST(FaultCampaign, DirectedFamilyFailsArcs) {
  ExplicitScg Net(SuperCayleyGraph::rotator(4));
  FaultCampaignOptions Opts = smallOptions();
  Opts.Rates = {0.05};
  Opts.Trials = 16;
  FaultCampaignResult Result = runFaultCampaign(Net, Opts);
  // 24 nodes x degree 3 directed arcs, each failable independently.
  EXPECT_EQ(Result.Components, 72u);
  EXPECT_EQ(Result.StarGeneratorContainers, 0u);
  EXPECT_EQ(Result.MaxFlowContainers, 4u);
}

TEST(FaultCampaign, RejectsRatesOutsideTheUnitInterval) {
  // A NaN or out-of-range rate would reach an undefined float-to-integer
  // cast when scaled to a 64-bit threshold; it is refused up front, in
  // every build. The endpoints 0 and 1 stay valid.
  ExplicitScg Net(SuperCayleyGraph::star(4));
  for (double Bad : {std::nan(""), -0.01, 1.5,
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    FaultCampaignOptions Opts = smallOptions();
    Opts.Rates.push_back(Bad);
    EXPECT_THROW(runFaultCampaign(Net, Opts), std::invalid_argument) << Bad;
  }
  FaultCampaignOptions Ends = smallOptions();
  Ends.Rates = {0.0, 1.0};
  FaultCampaignResult Result = runFaultCampaign(Net, Ends);
  ASSERT_EQ(Result.Points.size(), 2u);
  EXPECT_EQ(Result.Points[0].ConnectedTrials, Ends.Trials);
  EXPECT_EQ(Result.Points[1].ConnectedTrials, 0u);
}
