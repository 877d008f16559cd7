//===- tests/ParallelDifferentialTest.cpp - parallel == serial -----------===//
//
// Differential tests pinning the determinism contract of the parallel
// execution engine: for every network family at small k, msAllPairsStats,
// the single-fault sweeps, and permutation routing must produce
// results identical to the serial reference under 1, 2, and 8 threads and
// under SCG_THREADS=1 forced-serial mode. Doubles are compared bitwise:
// "identical" means byte-identical, not approximately equal.
//
//===----------------------------------------------------------------------===//

#include "comm/PermutationRouting.h"
#include "graph/Faults.h"
#include "graph/Metrics.h"
#include "graph/MsBfs.h"
#include "networks/Classic.h"
#include "networks/Explicit.h"
#include "support/ThreadPool.h"

#include "Oracles.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>

using namespace scg;

namespace {

/// Thread counts every differential case is replayed under; the first entry
/// is the serial reference.
constexpr unsigned ThreadCounts[] = {1, 2, 8};

/// Runs \p Fn with the global pool pinned to \p Threads, restoring
/// automatic sizing afterwards.
template <typename Fn> auto withThreads(unsigned Threads, Fn &&F) {
  setGlobalThreadCount(Threads);
  auto Result = F();
  setGlobalThreadCount(0);
  return Result;
}

/// Runs \p Fn under SCG_THREADS=1 (env-var forced serial, no override).
template <typename Fn> auto withForcedSerialEnv(Fn &&F) {
  const char *Old = std::getenv("SCG_THREADS");
  std::string Saved = Old ? Old : "";
  bool HadOld = Old != nullptr;
  setenv("SCG_THREADS", "1", 1);
  setGlobalThreadCount(0);
  auto Result = F();
  if (HadOld)
    setenv("SCG_THREADS", Saved.c_str(), 1);
  else
    unsetenv("SCG_THREADS");
  return Result;
}

bool bitEqual(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

void expectSame(const DistanceStats &Ref, const DistanceStats &Got,
                const std::string &Context) {
  EXPECT_EQ(Ref.Connected, Got.Connected) << Context;
  EXPECT_EQ(Ref.Diameter, Got.Diameter) << Context;
  EXPECT_TRUE(bitEqual(Ref.AverageDistance, Got.AverageDistance)) << Context;
}

void expectSame(const SingleFaultSweep &Ref, const SingleFaultSweep &Got,
                const std::string &Context) {
  EXPECT_EQ(Ref.AlwaysConnected, Got.AlwaysConnected) << Context;
  EXPECT_EQ(Ref.WorstDiameter, Got.WorstDiameter) << Context;
  EXPECT_EQ(Ref.FaultFreeDiameter, Got.FaultFreeDiameter) << Context;
  EXPECT_EQ(Ref.ScenariosTried, Got.ScenariosTried) << Context;
}

void expectSame(const PermutationRoutingResult &Ref,
                const PermutationRoutingResult &Got,
                const std::string &Context) {
  EXPECT_EQ(Ref.Steps, Got.Steps) << Context;
  EXPECT_EQ(Ref.LowerBound, Got.LowerBound) << Context;
  EXPECT_TRUE(bitEqual(Ref.Ratio, Got.Ratio)) << Context;
  EXPECT_TRUE(bitEqual(Ref.AverageRouteLength, Got.AverageRouteLength))
      << Context;
  EXPECT_EQ(Ref.MaxLinkLoad, Got.MaxLinkLoad) << Context;
}

/// The exhaustive-small fixture set: every family at k = 5 (and the (4,1)
/// degenerate box shape), as in ExhaustiveSmallTest.
std::vector<SuperCayleyGraph> familiesAtFive() {
  std::vector<SuperCayleyGraph> Nets;
  Nets.push_back(SuperCayleyGraph::star(5));
  Nets.push_back(SuperCayleyGraph::bubbleSort(5));
  Nets.push_back(SuperCayleyGraph::transpositionNetwork(5));
  Nets.push_back(SuperCayleyGraph::insertionSelection(5));
  for (NetworkKind Kind :
       {NetworkKind::MacroStar, NetworkKind::RotationStar,
        NetworkKind::CompleteRotationStar, NetworkKind::MacroRotator,
        NetworkKind::RotationRotator, NetworkKind::CompleteRotationRotator,
        NetworkKind::MacroIS, NetworkKind::RotationIS,
        NetworkKind::CompleteRotationIS}) {
    Nets.push_back(SuperCayleyGraph::create(Kind, 2, 2));
    Nets.push_back(SuperCayleyGraph::create(Kind, 4, 1));
  }
  return Nets;
}

/// Smaller emulation-capable subset for the (more expensive) routing cases.
std::vector<SuperCayleyGraph> routableHosts() {
  return {SuperCayleyGraph::star(5),
          SuperCayleyGraph::transpositionNetwork(5),
          SuperCayleyGraph::insertionSelection(5),
          SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2),
          SuperCayleyGraph::create(NetworkKind::RotationIS, 2, 2)};
}

} // namespace

TEST(ParallelDifferential, AllPairsStatsIdenticalAcrossThreadCounts) {
  for (const SuperCayleyGraph &Scg : familiesAtFive()) {
    Csr G = ExplicitScg(Scg).toCsr();
    DistanceStats Ref = withThreads(1, [&] { return msAllPairsStats(G); });
    EXPECT_TRUE(Ref.Connected) << Scg.name();
    for (unsigned Threads : ThreadCounts)
      expectSame(Ref, withThreads(Threads, [&] { return msAllPairsStats(G); }),
                 Scg.name() + " @" + std::to_string(Threads) + "T");
    expectSame(Ref, withForcedSerialEnv([&] { return msAllPairsStats(G); }),
               Scg.name() + " @SCG_THREADS=1");
  }
}

TEST(ParallelDifferential, AllPairsStatsIdenticalOnDisconnectedGraph) {
  std::vector<std::pair<NodeId, NodeId>> Edges; // two separate squares.
  for (NodeId I = 0; I != 4; ++I) {
    Edges.push_back({I, (I + 1) % 4});
    Edges.push_back({4 + I, 4 + (I + 1) % 4});
  }
  Csr G = oracle::undirectedGraph(8, Edges);
  DistanceStats Ref = withThreads(1, [&] { return msAllPairsStats(G); });
  EXPECT_FALSE(Ref.Connected);
  for (unsigned Threads : ThreadCounts)
    expectSame(Ref, withThreads(Threads, [&] { return msAllPairsStats(G); }),
               "disconnected @" + std::to_string(Threads) + "T");
}

TEST(ParallelDifferential, LinkFaultSweepIdenticalAcrossThreadCounts) {
  for (const SuperCayleyGraph &Scg : familiesAtFive()) {
    if (!Scg.isUndirected())
      continue; // link sweep is defined for undirected hosts.
    Csr G = ExplicitScg(Scg).toCsr();
    // Stride keeps every family fast while still covering dozens of
    // scenarios; determinism must hold for any stride.
    unsigned Stride = 3;
    SingleFaultSweep Ref =
        withThreads(1, [&] { return sweepSingleLinkFaults(G, Stride); });
    for (unsigned Threads : ThreadCounts)
      expectSame(
          Ref,
          withThreads(Threads,
                      [&] { return sweepSingleLinkFaults(G, Stride); }),
          Scg.name() + " links @" + std::to_string(Threads) + "T");
    expectSame(Ref,
               withForcedSerialEnv(
                   [&] { return sweepSingleLinkFaults(G, Stride); }),
               Scg.name() + " links @SCG_THREADS=1");
  }
}

TEST(ParallelDifferential, NodeFaultSweepIdenticalAcrossThreadCounts) {
  for (const SuperCayleyGraph &Scg : familiesAtFive()) {
    Csr G = ExplicitScg(Scg).toCsr();
    unsigned Stride = 7;
    SingleFaultSweep Ref =
        withThreads(1, [&] { return sweepSingleNodeFaults(G, Stride); });
    for (unsigned Threads : ThreadCounts)
      expectSame(
          Ref,
          withThreads(Threads,
                      [&] { return sweepSingleNodeFaults(G, Stride); }),
          Scg.name() + " nodes @" + std::to_string(Threads) + "T");
  }
}

TEST(ParallelDifferential, FaultSweepOnClassicGuestsIdentical) {
  for (auto [Name, G] :
       {std::pair<std::string, Csr>{"hypercube(4)", hypercube(4)},
        {"mesh2D(4,5)", mesh2D(4, 5)},
        {"bintree(4)", completeBinaryTree(4)}}) {
    SingleFaultSweep RefLinks =
        withThreads(1, [&] { return sweepSingleLinkFaults(G); });
    SingleFaultSweep RefNodes =
        withThreads(1, [&] { return sweepSingleNodeFaults(G); });
    for (unsigned Threads : ThreadCounts) {
      expectSame(RefLinks,
                 withThreads(Threads, [&] { return sweepSingleLinkFaults(G); }),
                 Name + " links @" + std::to_string(Threads) + "T");
      expectSame(RefNodes,
                 withThreads(Threads, [&] { return sweepSingleNodeFaults(G); }),
                 Name + " nodes @" + std::to_string(Threads) + "T");
    }
  }
}

TEST(ParallelDifferential, BatchRoutingIdenticalAcrossThreadCounts) {
  for (const SuperCayleyGraph &Scg : routableHosts()) {
    ExplicitScg Net(Scg);
    std::vector<TrafficPattern> Patterns = {
        randomTraffic(Net, 1), randomTraffic(Net, 2), randomTraffic(Net, 3),
        reversalTraffic(Net), translationTraffic(Net, 0)};
    // Route setup batches on the pool; the results must not depend on it.
    auto RouteAll = [&] {
      std::vector<PermutationRoutingResult> Results;
      for (const TrafficPattern &Pattern : Patterns)
        Results.push_back(simulatePermutationRouting(Net, Pattern));
      return Results;
    };

    std::vector<PermutationRoutingResult> Ref = withThreads(1, RouteAll);
    for (unsigned Threads : ThreadCounts) {
      std::vector<PermutationRoutingResult> Got =
          withThreads(Threads, RouteAll);
      for (size_t I = 0; I != Ref.size(); ++I)
        expectSame(Ref[I], Got[I],
                   Scg.name() + " pattern " + std::to_string(I) + " @" +
                       std::to_string(Threads) + "T");
    }
    std::vector<PermutationRoutingResult> Forced =
        withForcedSerialEnv(RouteAll);
    for (size_t I = 0; I != Ref.size(); ++I)
      expectSame(Ref[I], Forced[I],
                 Scg.name() + " pattern " + std::to_string(I) +
                     " @SCG_THREADS=1");
  }
}
