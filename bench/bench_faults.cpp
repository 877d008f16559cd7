//===- bench/bench_faults.cpp - Experiment E26 ---------------------------===//
//
// Monte Carlo reliability campaigns: random link/node fault sets at a
// ladder of fault rates on every network class, measuring connectivity
// survival, pairwise reachability, diameter inflation, and the adaptive
// container router's delivery rate and failover overhead
// (routing/FaultCampaign.h). This is the quantitative form of the paper's
// "fault-tolerant robust network" motivation [12]: the classes hold a
// reliability plateau far past the single-fault guarantee, and the k-1
// disjoint-path containers keep delivering while the fault rate is well
// below saturation. Also demos the graph-free generator-based star
// container at k = 12 (479M nodes, never materialized).
//
// Modes (consistent with the other bench harnesses):
//   (default)  human-readable curve tables + google-benchmark timings
//   --json     the full campaign document (committed as BENCH_faults.json)
//   --smoke    bounded run with invariants checked: thread-count
//              determinism, coupled-sampling monotonicity, exact zero-rate
//              point, container validity vs the max-flow oracle, and the
//              generator-vs-max-flow construction perf gate; non-zero exit
//              on any violation (ctest: perf-smoke).
//
//===----------------------------------------------------------------------===//

#include "graph/Containers.h"
#include "routing/FaultCampaign.h"
#include "routing/StarRouter.h"
#include "support/Format.h"
#include "support/ThreadPool.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace scg;

namespace {

FaultCampaignOptions campaignOptions(unsigned Trials) {
  FaultCampaignOptions Opts;
  Opts.Rates = {0.01, 0.02, 0.05, 0.10, 0.20, 0.40};
  Opts.Trials = Trials;
  Opts.Seed = 2026;
  Opts.RouterPairs = 8;
  return Opts;
}

/// The campaign set: the classic families plus the two-level classes at
/// (l, n) = (2, 2), all 120 nodes, and star(6) at 720 for scale.
std::vector<std::pair<SuperCayleyGraph, unsigned>> fullSet() {
  std::vector<std::pair<SuperCayleyGraph, unsigned>> Set;
  for (SuperCayleyGraph Scg :
       {SuperCayleyGraph::star(5), SuperCayleyGraph::bubbleSort(5),
        SuperCayleyGraph::transpositionNetwork(5),
        SuperCayleyGraph::insertionSelection(5), SuperCayleyGraph::rotator(5),
        SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2),
        SuperCayleyGraph::create(NetworkKind::RotationStar, 2, 2),
        SuperCayleyGraph::create(NetworkKind::CompleteRotationStar, 2, 2),
        SuperCayleyGraph::create(NetworkKind::MacroIS, 2, 2),
        SuperCayleyGraph::create(NetworkKind::RotationIS, 2, 2)})
    Set.push_back({Scg, 300});
  Set.push_back({SuperCayleyGraph::star(6), 120});
  return Set;
}

void writeCampaign(JsonWriter &W, const FaultCampaignResult &Result) {
  W.beginObject()
      .field("nodes", Result.Nodes)
      .field("components", Result.Components)
      .field("fault_free_diameter", Result.FaultFreeDiameter)
      .key("container")
      .beginObject()
      .field("mean_width", Result.MeanContainerWidth, 4)
      .field("star_generator", Result.StarGeneratorContainers)
      .field("max_flow", Result.MaxFlowContainers)
      .endObject()
      .key("curve")
      .beginArray();
  for (const FaultRatePoint &P : Result.Points) {
    W.beginObject()
        .field("rate", P.Rate, 4)
        .field("trials", P.Trials)
        .field("mean_faults", P.MeanFaultsInjected, 4)
        .field("connected_fraction", P.ConnectedFraction, 6)
        .field("mean_reachability", P.MeanReachability, 6)
        .field("mean_diameter_inflation", P.MeanDiameterInflation, 6)
        .field("worst_diameter", P.WorstDiameter)
        .field("routes_attempted", P.RoutesAttempted)
        .field("delivery_fraction", P.DeliveryFraction, 6)
        .field("mean_hop_overhead", P.MeanHopOverhead, 6)
        .field("mean_paths_tried", P.MeanPathsTried, 6)
        .endObject();
  }
  W.endArray().endObject();
}

void printCurveTable(const FaultCampaignResult &Result) {
  std::printf("%s: N=%llu, %llu faultable components, fault-free diameter "
              "%u, container width %.1f (%llu generator / %llu max-flow)\n",
              Result.Network.c_str(), (unsigned long long)Result.Nodes,
              (unsigned long long)Result.Components, Result.FaultFreeDiameter,
              Result.MeanContainerWidth,
              (unsigned long long)Result.StarGeneratorContainers,
              (unsigned long long)Result.MaxFlowContainers);
  TextTable Table;
  Table.setHeader({"rate", "faults", "connected", "reach", "diam infl",
                   "worst", "delivered", "hop ovhd", "paths tried"});
  for (const FaultRatePoint &P : Result.Points)
    Table.addRow({formatDouble(P.Rate, 2), formatDouble(P.MeanFaultsInjected, 1),
                  formatDouble(P.ConnectedFraction, 3),
                  formatDouble(P.MeanReachability, 4),
                  formatDouble(P.MeanDiameterInflation, 3),
                  std::to_string(P.WorstDiameter),
                  formatDouble(P.DeliveryFraction, 3),
                  formatDouble(P.MeanHopOverhead, 2),
                  formatDouble(P.MeanPathsTried, 2)});
  std::printf("%s\n", Table.render().c_str());
}

void graphFreeDemo(JsonWriter *W) {
  // star(12): 479,001,600 nodes. The generator construction never touches
  // a graph, so the full 11-wide container is immediate.
  Permutation Src = Permutation::identity(12);
  std::vector<uint8_t> Word;
  for (unsigned I = 12; I != 0; --I)
    Word.push_back(uint8_t(I - 1));
  Permutation Dst = Permutation::fromOneLine(std::move(Word));
  auto Start = std::chrono::steady_clock::now();
  StarContainer Container = buildStarContainer(Src, Dst);
  double Ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - Start)
                  .count();
  size_t Shortest = Container.Paths.front().size() - 1;
  size_t Longest = Container.Paths.back().size() - 1;
  if (W) {
    // No timing fields in the JSON: the committed document must be
    // deterministic.
    W->key("graph_free_container")
        .beginObject()
        .field("k", 12)
        .field("nodes", uint64_t(479001600))
        .field("complete", Container.Complete)
        .field("width", uint64_t(Container.Paths.size()))
        .field("distance", starDistance(Src, Dst))
        .field("shortest_path", uint64_t(Shortest))
        .field("longest_path", uint64_t(Longest))
        .endObject();
  } else {
    std::printf("graph-free container, star(12) identity -> reversal: "
                "width %zu (complete=%d), paths %zu..%zu hops vs distance "
                "%u, built in %.3f ms without materializing 479M nodes\n\n",
                Container.Paths.size(), int(Container.Complete), Shortest,
                Longest, starDistance(Src, Dst), Ms);
  }
}

void printTables() {
  std::printf("E26: Monte Carlo fault campaigns (coupled sampling, link "
              "faults; adaptive container routing over 8 sampled pairs)\n\n");
  for (const auto &[Scg, Trials] : fullSet())
    printCurveTable(runFaultCampaign(ExplicitScg(Scg),
                                     campaignOptions(Trials)));
  std::printf("node-fault campaign, star(5):\n");
  FaultCampaignOptions NodeOpts = campaignOptions(300);
  NodeOpts.NodeFaults = true;
  printCurveTable(runFaultCampaign(ExplicitScg(SuperCayleyGraph::star(5)),
                                   NodeOpts));
  graphFreeDemo(nullptr);
  std::printf("shape check: reliability plateaus near 1.0 far past the "
              "single-fault regime, reachability degrades smoothly, and "
              "the container router keeps delivery near the reliability "
              "curve with a hop overhead of a few hops -- the operational "
              "content of the fault-tolerance claim.\n\n");
}

void printJson() {
  JsonWriter W;
  W.beginObject().key("link_fault_campaigns").beginObject();
  for (const auto &[Scg, Trials] : fullSet()) {
    FaultCampaignResult Result =
        runFaultCampaign(ExplicitScg(Scg), campaignOptions(Trials));
    W.key(Result.Network);
    writeCampaign(W, Result);
  }
  W.endObject().key("node_fault_campaigns").beginObject();
  FaultCampaignOptions NodeOpts = campaignOptions(300);
  NodeOpts.NodeFaults = true;
  FaultCampaignResult NodeResult =
      runFaultCampaign(ExplicitScg(SuperCayleyGraph::star(5)), NodeOpts);
  W.key(NodeResult.Network);
  writeCampaign(W, NodeResult);
  W.endObject();
  graphFreeDemo(&W);
  W.endObject();
  std::fputs(W.str().c_str(), stdout);
}

bool pointsEqual(const FaultRatePoint &A, const FaultRatePoint &B) {
  return A.Rate == B.Rate && A.MeanFaultsInjected == B.MeanFaultsInjected &&
         A.ConnectedFraction == B.ConnectedFraction &&
         A.MeanReachability == B.MeanReachability &&
         A.MeanDiameterInflation == B.MeanDiameterInflation &&
         A.WorstDiameter == B.WorstDiameter &&
         A.RoutesAttempted == B.RoutesAttempted &&
         A.RoutesDelivered == B.RoutesDelivered &&
         A.MeanHopOverhead == B.MeanHopOverhead &&
         A.MeanPathsTried == B.MeanPathsTried;
}

int runSmoke() {
  int Failures = 0;

  // 1. Thread-count determinism: the campaign is byte-identical serial vs
  //    two threads.
  ExplicitScg Star5(SuperCayleyGraph::star(5));
  FaultCampaignOptions Opts = campaignOptions(64);
  Opts.Rates = {0.0, 0.05, 0.20};
  setGlobalThreadCount(1);
  FaultCampaignResult Serial = runFaultCampaign(Star5, Opts);
  setGlobalThreadCount(2);
  FaultCampaignResult Parallel = runFaultCampaign(Star5, Opts);
  setGlobalThreadCount(1);
  bool DetOk = Serial.Points.size() == Parallel.Points.size();
  for (size_t P = 0; DetOk && P != Serial.Points.size(); ++P)
    DetOk = pointsEqual(Serial.Points[P], Parallel.Points[P]);
  std::printf("determinism 1 vs 2 threads: %s\n",
              DetOk ? "det-ok" : "THREAD-DIVERGENCE");
  Failures += !DetOk;

  // 2. Exact zero-rate point and coupled monotone curves.
  const FaultRatePoint &Clean = Serial.Points.front();
  bool CleanOk = Clean.ConnectedFraction == 1.0 &&
                 Clean.MeanReachability == 1.0 &&
                 Clean.DeliveryFraction == 1.0 && Clean.MeanHopOverhead == 0.0;
  bool MonoOk = true;
  for (size_t P = 0; P + 1 < Serial.Points.size(); ++P) {
    const FaultRatePoint &Lo = Serial.Points[P], &Hi = Serial.Points[P + 1];
    MonoOk = MonoOk && Lo.ConnectedFraction >= Hi.ConnectedFraction &&
             Lo.MeanReachability >= Hi.MeanReachability &&
             Lo.RoutesDelivered >= Hi.RoutesDelivered;
  }
  std::printf("zero-rate point: %s, coupled monotonicity: %s\n",
              CleanOk ? "clean-ok" : "ZERO-RATE-BROKEN",
              MonoOk ? "monotone-ok" : "NON-MONOTONE-CURVE");
  Failures += !CleanOk + !MonoOk;

  // 3. Generator containers vs the max-flow oracle on sampled star(5)
  //    pairs: same width (= k-1 = local connectivity), valid and disjoint.
  FaultRouter Router(Star5);
  const Csr &G = Router.graph();
  bool ContainerOk = true;
  for (NodeId Dst : {NodeId(1), NodeId(37), NodeId(59), NodeId(119)}) {
    PathContainer C = Router.buildContainer(0, Dst);
    ContainerOk = ContainerOk &&
                  C.Construction == PathContainer::Method::StarGenerator &&
                  C.width() == 4 && internallyNodeDisjoint(C.Paths) &&
                  C.width() == localConnectivity(G, 0, Dst);
    for (const std::vector<NodeId> &Path : C.Paths)
      ContainerOk = ContainerOk && isSimplePath(G, Path);
  }
  std::printf("generator containers vs max-flow oracle: %s\n",
              ContainerOk ? "container-ok" : "CONTAINER-INVALID");
  Failures += !ContainerOk;

  // 4. Perf gate: the graph-free generator construction must beat the
  //    explicit max-flow construction on star(6) pairs (best of 5) -- the
  //    point of having it -- and stay under a generous absolute bound.
  ExplicitScg Star6(SuperCayleyGraph::star(6));
  Csr G6 = Star6.toCsr();
  NodeId Far = Star6.numNodes() - 1;
  double GenBest = 1e9, FlowBest = 1e9;
  bool WidthOk = true;
  for (int Rep = 0; Rep != 5; ++Rep) {
    auto T0 = std::chrono::steady_clock::now();
    StarContainer SC = buildStarContainer(Star6.label(0), Star6.label(Far));
    auto T1 = std::chrono::steady_clock::now();
    std::vector<std::vector<NodeId>> MF = nodeDisjointPaths(G6, 0, Far);
    auto T2 = std::chrono::steady_clock::now();
    WidthOk = WidthOk && SC.Complete && SC.Paths.size() == MF.size();
    GenBest = std::min(
        GenBest, std::chrono::duration<double, std::milli>(T1 - T0).count());
    FlowBest = std::min(
        FlowBest, std::chrono::duration<double, std::milli>(T2 - T1).count());
  }
  bool PerfOk = GenBest <= FlowBest && GenBest < 250.0;
  std::printf("star(6) container build: generator %.3f ms vs max-flow "
              "%.3f ms (best of 5), width agreement %s: %s\n",
              GenBest, FlowBest, WidthOk ? "ok" : "MISMATCH",
              PerfOk ? "perf-ok" : "GENERATOR-SLOWER");
  Failures += !PerfOk + !WidthOk;

  return Failures ? 1 : 0;
}

void BM_StarContainerK12(benchmark::State &State) {
  Permutation Src = Permutation::identity(12);
  std::vector<uint8_t> Word;
  for (unsigned I = 12; I != 0; --I)
    Word.push_back(uint8_t(I - 1));
  Permutation Dst = Permutation::fromOneLine(std::move(Word));
  for (auto _ : State)
    benchmark::DoNotOptimize(buildStarContainer(Src, Dst).Paths.size());
}
BENCHMARK(BM_StarContainerK12)->Unit(benchmark::kMicrosecond);

void BM_CampaignStar4(benchmark::State &State) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  FaultCampaignOptions Opts = campaignOptions(64);
  for (auto _ : State)
    benchmark::DoNotOptimize(
        runFaultCampaign(Net, Opts).Points.back().MeanReachability);
}
BENCHMARK(BM_CampaignStar4)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  bool Json = false, Smoke = false;
  for (int I = 1; I != argc; ++I) {
    Json |= std::strcmp(argv[I], "--json") == 0;
    Smoke |= std::strcmp(argv[I], "--smoke") == 0;
  }
  if (Smoke) {
    setGlobalThreadCount(1);
    return runSmoke();
  }
  if (Json) {
    setGlobalThreadCount(1);
    printJson();
    return 0;
  }
  printTables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
