//===- routing/FaultCampaign.cpp - Monte Carlo reliability campaigns ------===//

#include "routing/FaultCampaign.h"

#include "graph/Metrics.h"
#include "support/Format.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

using namespace scg;

namespace {

/// Per-rate running sums; summed elementwise across trials by the
/// chunk-ordered reduction, then normalized into FaultRatePoint. Integer
/// sums where possible so the fold is exact; the double sums
/// (reachability, inflation) are deterministic by the chunk-order
/// contract.
struct PointAccum {
  uint64_t FaultsInjected = 0;
  uint64_t ConnectedTrials = 0;
  double SumReachability = 0.0;
  double SumDiameterInflation = 0.0; ///< over connected trials.
  uint32_t WorstDiameter = 0;        ///< over connected trials.
  uint64_t RoutesAttempted = 0;
  uint64_t RoutesDelivered = 0;
  uint64_t SumHopOverhead = 0; ///< over delivered routes.
  uint64_t SumPathsTried = 0;  ///< over attempted routes.

  void fold(const PointAccum &Rhs) {
    FaultsInjected += Rhs.FaultsInjected;
    ConnectedTrials += Rhs.ConnectedTrials;
    SumReachability += Rhs.SumReachability;
    SumDiameterInflation += Rhs.SumDiameterInflation;
    WorstDiameter = std::max(WorstDiameter, Rhs.WorstDiameter);
    RoutesAttempted += Rhs.RoutesAttempted;
    RoutesDelivered += Rhs.RoutesDelivered;
    SumHopOverhead += Rhs.SumHopOverhead;
    SumPathsTried += Rhs.SumPathsTried;
  }
};

/// The coupling threshold: a component fails at rate R iff its 64-bit draw
/// is below R * 2^64, so one draw decides the component at every rate and
/// the fault sets are nested along the ladder. Rates are validated to
/// [0, 1], and any rate below 1 scales to strictly less than 2^64.
uint64_t rateThreshold(double Rate) {
  return Rate >= 1.0 ? ~uint64_t(0) : uint64_t(std::ldexp(Rate, 64));
}

/// Per-trial generator state: decorrelate trials by running the base seed
/// through one SplitMix64 step per trial index (outputs as seeds, the
/// Workload.cpp discipline).
uint64_t trialSeed(uint64_t Base, uint64_t Trial) {
  SplitMix64 Mix(Base ^ (0x9E3779B97F4A7C15ULL * (Trial + 1)));
  return Mix.next();
}

} // namespace

FaultCampaignResult scg::runFaultCampaign(const ExplicitScg &Net,
                                          const FaultCampaignOptions &Opts) {
  // rateThreshold scales a rate to 2^64, where a NaN or out-of-range
  // value would reach an undefined float-to-integer cast.
  for (double Rate : Opts.Rates)
    if (!(Rate >= 0.0 && Rate <= 1.0))
      throw std::invalid_argument("runFaultCampaign: fault rate " +
                                  std::to_string(Rate) +
                                  " is not in [0, 1]");

  FaultCampaignResult Result;
  Result.Network = Net.network().name();
  Result.Nodes = Net.numNodes();

  FaultRouter Router(Net);
  const Graph &G = Router.graph();
  Result.FaultFreeDiameter = vertexTransitiveStats(G).Diameter;

  // The faultable component list, in a fixed deterministic order that the
  // per-trial draw stream walks. Undirected families fail links as
  // unordered pairs (both directions at once); the rotator-style directed
  // families fail individual arcs.
  bool Undirected = Net.network().isUndirected();
  std::vector<std::pair<NodeId, NodeId>> Links;
  if (!Opts.NodeFaults)
    for (NodeId From = 0; From != G.numNodes(); ++From)
      for (NodeId To : G.neighbors(From))
        if (!Undirected || From < To)
          Links.push_back({From, To});
  Result.Components = Opts.NodeFaults ? Result.Nodes : Links.size();

  // Sample the router pairs and build their containers once -- containers
  // are a property of the fault-free topology, not of any fault set.
  std::vector<PathContainer> Containers;
  if (Opts.RouterPairs > 0 && Net.numNodes() >= 2) {
    SplitMix64 PairRng(trialSeed(Opts.Seed, ~uint64_t(0)));
    for (unsigned P = 0; P != Opts.RouterPairs; ++P) {
      NodeId Src = NodeId(PairRng.nextBelow(Net.numNodes()));
      NodeId Dst = Src;
      while (Dst == Src)
        Dst = NodeId(PairRng.nextBelow(Net.numNodes()));
      Containers.push_back(Router.buildContainer(Src, Dst));
    }
  }
  for (const PathContainer &C : Containers) {
    Result.MeanContainerWidth += C.width();
    if (C.Construction == PathContainer::Method::StarGenerator)
      ++Result.StarGeneratorContainers;
    else
      ++Result.MaxFlowContainers;
  }
  if (!Containers.empty())
    Result.MeanContainerWidth /= double(Containers.size());

  size_t NumRates = Opts.Rates.size();
  std::vector<uint64_t> Thresholds(NumRates);
  for (size_t R = 0; R != NumRates; ++R)
    Thresholds[R] = rateThreshold(Opts.Rates[R]);

  // One trial = one draw stream = one nested family of fault sets, all
  // rates evaluated against it. Trials are independent, so the parallel
  // map is over trials and the fold is exact elementwise summation.
  using Accum = std::vector<PointAccum>;
  Accum Totals = ThreadPool::global().parallelMapReduce<Accum>(
      0, Opts.Trials, Accum(NumRates),
      [&](uint64_t Trial) {
        Accum Local(NumRates);
        for (size_t R = 0; R != NumRates; ++R) {
          PointAccum &Acc = Local[R];
          // Re-run the trial's stream from the top for each rate: same
          // draws, lower threshold = subset of the faults (coupling).
          SplitMix64 Rng(trialSeed(Opts.Seed, Trial));
          FaultSet Faults;
          if (Opts.NodeFaults) {
            for (NodeId Node = 0; Node != G.numNodes(); ++Node)
              if (Rng.next() < Thresholds[R])
                Faults.failNode(Node);
            Acc.FaultsInjected = Faults.numFailedNodes();
          } else {
            for (const auto &[From, To] : Links)
              if (Rng.next() < Thresholds[R]) {
                if (Undirected)
                  Faults.failLink(From, To);
                else
                  Faults.failDirectedLink(From, To);
              }
            Acc.FaultsInjected = Undirected ? Faults.numFailedLinks()
                                            : Faults.numFailedDirectedLinks();
          }

          ReachabilityAnalysis Health =
              analyzeReachabilityUnderFaults(G, Faults);
          if (Health.HealthyNodes == 0)
            ; // reachability 0, disconnected: defaults already say so.
          else if (Health.HealthyNodes == 1)
            Acc.SumReachability += 1.0;
          else
            Acc.SumReachability +=
                double(Health.ReachableOrderedPairs) /
                (double(Health.HealthyNodes) *
                 double(Health.HealthyNodes - 1));
          if (Health.Connected && Health.HealthyNodes > 0) {
            ++Acc.ConnectedTrials;
            Acc.WorstDiameter = std::max(Acc.WorstDiameter, Health.Diameter);
            Acc.SumDiameterInflation +=
                Result.FaultFreeDiameter == 0
                    ? 1.0
                    : double(Health.Diameter) /
                          double(Result.FaultFreeDiameter);
          }

          for (const PathContainer &C : Containers) {
            if (Faults.nodeFailed(C.Src) || Faults.nodeFailed(C.Dst))
              continue; // a dead endpoint is not a routing failure.
            ++Acc.RoutesAttempted;
            FaultRouteResult Route = Router.route(C, Faults);
            Acc.SumPathsTried += Route.PathsTried;
            if (Route.Delivered) {
              ++Acc.RoutesDelivered;
              assert(Route.HopsTraversed >= Route.FaultFreeHops &&
                     "failover can only add hops");
              Acc.SumHopOverhead += Route.HopsTraversed - Route.FaultFreeHops;
            }
          }
        }
        return Local;
      },
      [](Accum A, const Accum &B) {
        for (size_t R = 0; R != A.size(); ++R)
          A[R].fold(B[R]);
        return A;
      });

  Result.Points.reserve(NumRates);
  for (size_t R = 0; R != NumRates; ++R) {
    const PointAccum &Acc = Totals[R];
    FaultRatePoint Point;
    Point.Rate = Opts.Rates[R];
    Point.Trials = Opts.Trials;
    Point.ConnectedTrials = Acc.ConnectedTrials;
    if (Opts.Trials > 0) {
      Point.MeanFaultsInjected = double(Acc.FaultsInjected) / Opts.Trials;
      Point.ConnectedFraction = double(Acc.ConnectedTrials) / Opts.Trials;
      Point.MeanReachability = Acc.SumReachability / Opts.Trials;
    }
    Point.MeanDiameterInflation =
        Acc.ConnectedTrials == 0
            ? 0.0
            : Acc.SumDiameterInflation / double(Acc.ConnectedTrials);
    Point.WorstDiameter = Acc.WorstDiameter;
    Point.RoutesAttempted = Acc.RoutesAttempted;
    Point.RoutesDelivered = Acc.RoutesDelivered;
    Point.DeliveryFraction =
        Acc.RoutesAttempted == 0
            ? 0.0
            : double(Acc.RoutesDelivered) / double(Acc.RoutesAttempted);
    Point.MeanHopOverhead =
        Acc.RoutesDelivered == 0
            ? 0.0
            : double(Acc.SumHopOverhead) / double(Acc.RoutesDelivered);
    Point.MeanPathsTried =
        Acc.RoutesAttempted == 0
            ? 0.0
            : double(Acc.SumPathsTried) / double(Acc.RoutesAttempted);
    Result.Points.push_back(Point);
  }
  return Result;
}
