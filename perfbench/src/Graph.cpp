//===- perfbench/src/Graph.cpp - graph_sweeps -----------------------------===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact distance sweep and fault-rate ladder -> reliability curve. A
/// round is one exact all-pairs msAllPairsStats over star(8)'s CSR
/// (call_s), then one runFaultCampaign on MS(2,3) with the default rate
/// ladder and link faults (round_s). Neither the simulator nor the query
/// engine runs here.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "graph/Faults.h"
#include "graph/MsBfs.h"
#include "routing/FaultCampaign.h"
#include "routing/FaultRouter.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <memory>

using namespace perfbench;
using namespace scg;

namespace {

struct GraphShape {
  unsigned SweepK;      ///< star(SweepK) all-pairs sweep.
  unsigned L, N;        ///< MS(L, N) fault campaign.
  unsigned Trials;      ///< campaign trials per rate.
  unsigned RouterPairs; ///< container pairs of the traced routing probe.
};

GraphShape shapeFor(const Options &Opts) {
  if (Opts.Tiny)
    return {5, 2, 2, 4, 4};
  return {8, 2, 3, 8, 8};
}

struct Networks {
  std::unique_ptr<ExplicitScg> Star;
  std::unique_ptr<Csr> StarCsr;
  std::unique_ptr<ExplicitScg> Ms;
};

Networks setUp(Context &C, const GraphShape &Shape, Samples &Setup) {
  Networks Nets;
  while (moreSetups(C.Opts, Setup)) {
    Nets = Networks();
    double T0 = now();
    {
      Tracer::Scope Span(C.Trace, "networks.build");
      Nets.Star =
          std::make_unique<ExplicitScg>(SuperCayleyGraph::star(Shape.SweepK));
    }
    {
      Tracer::Scope Span(C.Trace, "graph.csr_build");
      Nets.StarCsr = std::make_unique<Csr>(Nets.Star->toCsr());
    }
    {
      Tracer::Scope Span(C.Trace, "networks.build");
      Nets.Ms = std::make_unique<ExplicitScg>(
          SuperCayleyGraph::create(NetworkKind::MacroStar, Shape.L, Shape.N));
    }
    Setup.add(now() - T0);
  }
  checkExplicit(C, *Nets.Star, "networks.star");
  checkExplicit(C, *Nets.Ms, "networks.ms");
  return Nets;
}

FaultCampaignOptions campaignOptions(const Options &Opts,
                                     const GraphShape &Shape) {
  FaultCampaignOptions O;
  O.Trials = Shape.Trials;
  O.Seed = deriveSeed(Opts.Seed, 7);
  return O;
}

/// Checks a sweep result against its seed-independent goldens.
void checkSweep(Context &C, const DistanceStats &S) {
  Checks::Op Op(C.Check);
  Op.expect(S.Connected, "star graph swept as disconnected");
  Op.goldens("distance",
             {{"connected", fmt(uint64_t(S.Connected))},
              {"diameter", fmt(uint64_t(S.Diameter))},
              {"average", fmt(S.AverageDistance)}},
             /*SeedIndependent=*/true);
}

Fingerprint fingerprint(const FaultCampaignResult &R) {
  Fingerprint F = {{"nodes", fmt(R.Nodes)},
                   {"components", fmt(R.Components)},
                   {"fault_free_diameter", fmt(uint64_t(R.FaultFreeDiameter))},
                   {"mean_container_width", fmt(R.MeanContainerWidth)},
                   {"star_containers", fmt(R.StarGeneratorContainers)},
                   {"maxflow_containers", fmt(R.MaxFlowContainers)}};
  for (size_t I = 0; I != R.Points.size(); ++I) {
    const FaultRatePoint &P = R.Points[I];
    const std::string At = "p" + std::to_string(I) + ".";
    for (auto &Field : Fingerprint{
             {"rate", fmt(P.Rate)},
             {"trials", fmt(P.Trials)},
             {"mean_faults", fmt(P.MeanFaultsInjected)},
             {"connected_trials", fmt(P.ConnectedTrials)},
             {"mean_reachability", fmt(P.MeanReachability)},
             {"mean_diameter_inflation", fmt(P.MeanDiameterInflation)},
             {"worst_diameter", fmt(uint64_t(P.WorstDiameter))},
             {"routes_attempted", fmt(P.RoutesAttempted)},
             {"routes_delivered", fmt(P.RoutesDelivered)},
             {"mean_hop_overhead", fmt(P.MeanHopOverhead)},
             {"mean_paths_tried", fmt(P.MeanPathsTried)}})
      F.push_back({At + Field.first, Field.second});
  }
  return F;
}

/// Checks every campaign of a run: coupled sampling makes survival
/// monotone along the rate ladder, every call must equal the first, and
/// the first must match the seed's goldens.
class CampaignCheck {
public:
  CampaignCheck(Context &C, const FaultCampaignOptions &O) : C(C), O(O) {}

  void operator()(const FaultCampaignResult &R) {
    Checks::Op Op(C.Check);
    if (!Op.expect(R.Points.size() == O.Rates.size(), "campaign point count"))
      return;
    for (size_t I = 0; I != R.Points.size(); ++I) {
      const FaultRatePoint &P = R.Points[I];
      Op.expect(P.Trials == O.Trials, "campaign trial count");
      Op.expect(P.RoutesDelivered <= P.RoutesAttempted,
                "campaign delivered more routes than attempted");
      if (I)
        Op.expect(P.ConnectedTrials <= R.Points[I - 1].ConnectedTrials &&
                      P.MeanReachability <= R.Points[I - 1].MeanReachability,
                  "campaign survival not monotone in the fault rate");
    }
    Fingerprint F = fingerprint(R);
    if (First.empty()) {
      First = F;
      Op.goldens("faults.campaign", F);
    } else {
      Op.same("faults.campaign", First, F);
    }
  }

private:
  Context &C;
  const FaultCampaignOptions &O;
  Fingerprint First;
};

/// Link faults at \p Rate, sampled by the benchmark over \p Net's
/// undirected links.
FaultSet sampleLinkFaults(const ExplicitScg &Net, double Rate, Rng &R) {
  FaultSet F;
  for (NodeId U = 0; U != Net.numNodes(); ++U)
    for (GenIndex G = 0; G != Net.degree(); ++G) {
      NodeId V = Net.next(U, G);
      if (U < V && R.unit() < Rate)
        F.failLink(U, V);
    }
  return F;
}

void runUntraced(Context &C, const Networks &Nets, const GraphShape &Shape) {
  const FaultCampaignOptions O = campaignOptions(C.Opts, Shape);
  CampaignCheck Campaign(C, O);
  Samples Sweep, Faults;
  timedRounds(C.Opts.Seconds, 3, [&](bool Timed) {
    double T0 = now();
    DistanceStats S = msAllPairsStats(*Nets.StarCsr);
    double T1 = now();
    FaultCampaignResult R = runFaultCampaign(*Nets.Ms, O);
    double T2 = now();
    if (Timed) {
      Sweep.add(T1 - T0);
      Faults.add(T2 - T1);
    }
    checkSweep(C, S);
    Campaign(R);
  });
  C.Out.set("call_s", Sweep.median());
  C.Out.set("round_s", Faults.median());
  Metrics::report("distance.sweep_s", Sweep, "s");
  Metrics::report("faults.campaign_s", Faults, "s");
}

void runTraced(Context &C, const Networks &Nets, const GraphShape &Shape) {
  const FaultCampaignOptions O = campaignOptions(C.Opts, Shape);
  CampaignCheck Campaign(C, O);
  Tracer &T = C.Trace;

  // Untraced baseline of the round, after a warm-up round, for the
  // tracing overhead.
  double Untraced = 0;
  for (unsigned Rep = 0; Rep != 2; ++Rep) {
    double T0 = now();
    checkSweep(C, msAllPairsStats(*Nets.StarCsr));
    Campaign(runFaultCampaign(*Nets.Ms, O));
    Untraced = now() - T0;
  }

  double Round = 0;
  {
    Tracer::Scope R(T, "graph.round");
    {
      Tracer::Scope S(T, "distance.sweep");
      checkSweep(C, msAllPairsStats(*Nets.StarCsr));
    }
    Tracer::Scope S(T, "faults.campaign");
    Campaign(runFaultCampaign(*Nets.Ms, O));
    S.close();
    Round = R.close();
  }
  {
    Tracer::Scope S(T, "graph.transpose");
    Csr Transposed = Nets.StarCsr->transpose();
    S.close();
    Checks::Op Op(C.Check);
    Op.expect(Transposed.numEdges() == Nets.StarCsr->numEdges(),
              "transpose edge count");
  }
  setGlobalThreadCount(1);
  {
    Tracer::Scope S(T, "distance.sweep_1t");
    checkSweep(C, msAllPairsStats(*Nets.StarCsr));
  }
  setGlobalThreadCount(0);

  // Fault analysis and adaptive routing on one fault set sampled at the
  // ladder's top rate.
  Rng R(deriveSeed(C.Opts.Seed, 8));
  const double TopRate = *std::max_element(O.Rates.begin(), O.Rates.end());
  const FaultSet Faults = sampleLinkFaults(*Nets.Ms, TopRate, R);
  const Graph MsGraph = Nets.Ms->toGraph();
  Samples Analysis;
  for (unsigned I = 0; I != 5; ++I) {
    Tracer::Scope S(T, "graph.fault_analysis");
    FaultAnalysis A = analyzeUnderFaults(MsGraph, Faults);
    Analysis.add(S.close());
    Checks::Op Op(C.Check);
    Op.expect(A.HealthyNodes == Nets.Ms->numNodes(),
              "link faults removed a node");
  }
  FaultRouter Router(*Nets.Ms);
  Samples Build, Route;
  for (unsigned P = 0; P != Shape.RouterPairs; ++P) {
    NodeId Src = NodeId(R.below(Nets.Ms->numNodes()));
    NodeId Dst = NodeId(R.below(Nets.Ms->numNodes() - 1));
    Dst += Dst >= Src;
    Tracer::Scope B(T, "routing.container_build");
    PathContainer Container = Router.buildContainer(Src, Dst);
    Build.add(B.close());
    Checks::Op Op(C.Check);
    Op.expect(Container.width() > 0, "empty container");
    for (const std::vector<NodeId> &Path : Container.Paths) {
      Op.expect(Path.front() == Src && Path.back() == Dst,
                "container path endpoints");
      for (size_t H = 0; H + 1 < Path.size(); ++H) {
        bool Linked = false;
        for (GenIndex G = 0; G != Nets.Ms->degree(); ++G)
          Linked |= Nets.Ms->next(Path[H], G) == Path[H + 1];
        Op.expect(Linked, "container path uses a non-link");
      }
    }
    for (unsigned Rep = 0; Rep != 16; ++Rep) {
      Tracer::Scope S(T, "routing.fault_route");
      FaultRouteResult Res = Router.route(Container, Faults);
      Route.add(S.close());
      Op.expect(!Res.Delivered || Res.RouteLength >= Res.FaultFreeHops,
                "delivered route shorter than the fault-free route");
    }
  }

  const double Sweep = T.total("distance.sweep");
  const double Sweep1 = T.total("distance.sweep_1t");
  Metrics &M = C.Out;
  M.set("distance.sweep_s", Sweep);
  M.set("faults.campaign_s", T.total("faults.campaign"));
  M.set("trace.overhead_s", Round - Untraced);
  M.set("graph.csr_build_s", T.total("graph.csr_build"));
  M.set("graph.transpose_s", T.total("graph.transpose"));
  M.set("graph.sweep_1t_s", Sweep1);
  M.set("graph.sweep_scaling", Sweep1 / Sweep);
  M.set("graph.fault_analysis_ms", Analysis.median() * 1e3);
  M.set("routing.container_build_ms", Build.mean() * 1e3);
  M.set("routing.fault_route_us", Route.mean() * 1e6);
}

} // namespace

void perfbench::checkExplicit(Context &C, const ExplicitScg &Net,
                              const std::string &Key) {
  const std::vector<NodeId> &Next = Net.nextTable();
  Checks::Op Op(C.Check);
  Op.golden(Key + ".next_checksum",
            fmt(fnv1a(Next.data(), Next.size() * sizeof(NodeId))),
            /*SeedIndependent=*/true);
}

void perfbench::runGraph(Context &C) {
  const GraphShape Shape = shapeFor(C.Opts);
  Samples Setup;
  Networks Nets = setUp(C, Shape, Setup);
  C.Out.set("setup_s", Setup.median());
  C.Out.set("networks.build_s",
            C.Trace.total("networks.build") / double(Setup.size()));
  Metrics::report("setup_s", Setup, "s");
  if (C.Opts.Trace)
    runTraced(C, Nets, Shape);
  else
    runUntraced(C, Nets, Shape);
}
