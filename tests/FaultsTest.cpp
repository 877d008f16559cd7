//===- tests/FaultsTest.cpp - Fault injection tests ----------------------===//

#include "graph/Faults.h"

#include "graph/Metrics.h"
#include "networks/Classic.h"
#include "networks/Explicit.h"
#include "support/Format.h"
#include "support/ThreadPool.h"

#include "Oracles.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

using namespace scg;

TEST(Faults, ApplyRemovesFailedLinks) {
  Csr G = oracle::undirectedGraph(3, {{0, 1}, {1, 2}});
  FaultSet Faults;
  Faults.failLink(0, 1);
  Csr Out = oracle::applyFaults(G, Faults);
  EXPECT_FALSE(oracle::hasArc(Out, 0, 1));
  EXPECT_FALSE(oracle::hasArc(Out, 1, 0));
  EXPECT_TRUE(oracle::hasArc(Out, 1, 2));
}

TEST(Faults, NodeFaultKillsAllIncidentLinks) {
  Csr G = mesh2D(2, 2);
  FaultSet Faults;
  Faults.failNode(0);
  Csr Out = oracle::applyFaults(G, Faults);
  EXPECT_TRUE(Out.neighbors(0).empty());
  EXPECT_FALSE(oracle::hasArc(Out, 1, 0));
}

TEST(Faults, PathGraphDisconnectsOnAnyLinkFault) {
  Csr G = oracle::undirectedGraph(4, {{0, 1}, {1, 2}, {2, 3}});
  SingleFaultSweep Sweep = sweepSingleLinkFaults(G);
  EXPECT_FALSE(Sweep.AlwaysConnected);
  EXPECT_EQ(Sweep.ScenariosTried, 3u);
}

TEST(Faults, CycleSurvivesAnySingleLinkFault) {
  Csr G = oracle::undirectedGraph(
      6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}});
  SingleFaultSweep Sweep = sweepSingleLinkFaults(G);
  EXPECT_TRUE(Sweep.AlwaysConnected);
  EXPECT_EQ(Sweep.FaultFreeDiameter, 3u);
  EXPECT_EQ(Sweep.WorstDiameter, 5u); // broken ring becomes a path.
}

TEST(Faults, StarGraphSurvivesSingleLinkFaults) {
  // The k-star is (k-1)-connected; one dead link cannot disconnect it and
  // the diameter grows by at most a small constant.
  ExplicitScg Net(SuperCayleyGraph::star(5));
  Csr G = Net.toCsr();
  SingleFaultSweep Sweep = sweepSingleLinkFaults(G, /*Stride=*/5);
  EXPECT_TRUE(Sweep.AlwaysConnected);
  EXPECT_EQ(Sweep.FaultFreeDiameter, 6u);
  EXPECT_LE(Sweep.WorstDiameter, 8u);
}

TEST(Faults, MacroStarSurvivesSingleLinkFaults) {
  ExplicitScg Net(SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2));
  Csr G = Net.toCsr();
  SingleFaultSweep Sweep = sweepSingleLinkFaults(G, /*Stride=*/3);
  EXPECT_TRUE(Sweep.AlwaysConnected);
  EXPECT_LE(Sweep.WorstDiameter, Sweep.FaultFreeDiameter + 4);
}

TEST(Faults, InsertionSelectionSurvivesNodeFaults) {
  ExplicitScg Net(SuperCayleyGraph::insertionSelection(5));
  Csr G = Net.toCsr();
  SingleFaultSweep Sweep = sweepSingleNodeFaults(G, /*Stride=*/7);
  EXPECT_TRUE(Sweep.AlwaysConnected);
  EXPECT_LE(Sweep.WorstDiameter, Sweep.FaultFreeDiameter + 2);
}

TEST(Faults, AnalysisCountsHealthyNodes) {
  Csr G = mesh2D(3, 3);
  FaultSet Faults;
  Faults.failNode(4); // the center.
  FaultAnalysis Analysis = analyzeUnderFaults(G, Faults);
  EXPECT_EQ(Analysis.HealthyNodes, 8u);
  EXPECT_TRUE(Analysis.Connected); // ring around the center survives.
  EXPECT_EQ(Analysis.Diameter, 4u);
}

TEST(Faults, TwoFaultsCanDisconnectDegreeTwoNode) {
  Csr G = mesh2D(2, 2); // corners have degree 2.
  FaultSet Faults;
  Faults.failLink(0, 1);
  Faults.failLink(0, 2);
  FaultAnalysis Analysis = analyzeUnderFaults(G, Faults);
  EXPECT_FALSE(Analysis.Connected);
}

// Regression: numFailedLinks used to return the directed entry count, so
// one failLink (both directions) reported as two faults.
TEST(Faults, NumFailedLinksCountsUndirectedPairs) {
  FaultSet Faults;
  Faults.failLink(0, 1);
  EXPECT_EQ(Faults.numFailedLinks(), 1u);
  EXPECT_EQ(Faults.numFailedDirectedLinks(), 2u);
  Faults.failLink(1, 0); // duplicate of the same unordered pair.
  EXPECT_EQ(Faults.numFailedLinks(), 1u);
  EXPECT_EQ(Faults.numFailedDirectedLinks(), 2u);
  // A one-direction fault is its own (single) undirected pair.
  Faults.failDirectedLink(5, 2);
  EXPECT_EQ(Faults.numFailedLinks(), 2u);
  EXPECT_EQ(Faults.numFailedDirectedLinks(), 3u);
  // Completing the mirror direction must not double-count the pair, and
  // counting must interleave cleanly with mutation and queries.
  EXPECT_TRUE(Faults.linkFailed(5, 2));
  Faults.failDirectedLink(2, 5);
  EXPECT_EQ(Faults.numFailedLinks(), 2u);
  EXPECT_EQ(Faults.numFailedDirectedLinks(), 4u);
  Faults.failLink(3, 4);
  EXPECT_TRUE(Faults.linkFailed(4, 3));
  EXPECT_EQ(Faults.numFailedLinks(), 3u);
}

// Regression: the early exit on the first disconnected source used to
// return the diameter accumulated from earlier (connected) sources.
TEST(Faults, DisconnectedAnalysisReportsZeroDiameter) {
  Csr G = oracle::undirectedGraph(3, {{0, 1}, {1, 2}});
  FaultSet Faults;
  // Kill only 2 -> 1: sources 0 and 1 still reach everyone (accumulating
  // eccentricity 2) before source 2, which reaches nobody.
  Faults.failDirectedLink(2, 1);
  FaultAnalysis Analysis = analyzeUnderFaults(G, Faults);
  EXPECT_FALSE(Analysis.Connected);
  EXPECT_EQ(Analysis.Diameter, 0u);
  ReachabilityAnalysis Reach = analyzeReachabilityUnderFaults(G, Faults);
  EXPECT_FALSE(Reach.Connected);
  EXPECT_EQ(Reach.Diameter, 0u);
  // 0 and 1 see two nodes each; 2 sees nobody.
  EXPECT_EQ(Reach.ReachableOrderedPairs, 4u);
}

// Regression: a sweep with zero scenarios used to report AlwaysConnected
// = true -- a vacuous robustness certificate.
TEST(Faults, ZeroScenarioSweepIsNotARobustnessCertificate) {
  Csr Edgeless = oracle::undirectedGraph(3, {});
  SingleFaultSweep Links = sweepSingleLinkFaults(Edgeless);
  EXPECT_EQ(Links.ScenariosTried, 0u);
  EXPECT_FALSE(Links.AlwaysConnected);
  Csr Empty = oracle::undirectedGraph(0, {});
  SingleFaultSweep Nodes = sweepSingleNodeFaults(Empty);
  EXPECT_EQ(Nodes.ScenariosTried, 0u);
  EXPECT_FALSE(Nodes.AlwaysConnected);
}

TEST(Faults, StridedSweepAgreesWithExhaustive) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  Csr G = Net.toCsr();
  SingleFaultSweep Exhaustive = sweepSingleLinkFaults(G, /*Stride=*/1);
  SingleFaultSweep Strided = sweepSingleLinkFaults(G, /*Stride=*/3);
  EXPECT_EQ(Exhaustive.ScenariosTried, G.numEdges() / 2);
  EXPECT_EQ(Strided.ScenariosTried, (Exhaustive.ScenariosTried + 2) / 3);
  EXPECT_EQ(Exhaustive.FaultFreeDiameter, Strided.FaultFreeDiameter);
  // star(4) survives any single link fault, so both sweeps agree exactly;
  // in general a strided sweep sees a subset of the scenarios.
  EXPECT_TRUE(Exhaustive.AlwaysConnected);
  EXPECT_TRUE(Strided.AlwaysConnected);
  EXPECT_LE(Strided.WorstDiameter, Exhaustive.WorstDiameter);
}

TEST(Faults, HubNodeFaultIsolatesLeaves) {
  // A star *topology* (one hub): killing the hub strands every leaf.
  Csr G = oracle::undirectedGraph(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  FaultSet Faults;
  Faults.failNode(0);
  FaultAnalysis Analysis = analyzeUnderFaults(G, Faults);
  EXPECT_EQ(Analysis.HealthyNodes, 4u);
  EXPECT_FALSE(Analysis.Connected);
  EXPECT_EQ(Analysis.Diameter, 0u);
  ReachabilityAnalysis Reach = analyzeReachabilityUnderFaults(G, Faults);
  EXPECT_EQ(Reach.ReachableOrderedPairs, 0u);
  SingleFaultSweep Sweep = sweepSingleNodeFaults(G);
  EXPECT_FALSE(Sweep.AlwaysConnected);
}

TEST(Faults, SweepsAreThreadCountInvariant) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  Csr G = Net.toCsr();
  setGlobalThreadCount(1);
  SingleFaultSweep SerialLinks = sweepSingleLinkFaults(G);
  SingleFaultSweep SerialNodes = sweepSingleNodeFaults(G);
  for (unsigned Threads : {2u, 8u}) {
    setGlobalThreadCount(Threads);
    SingleFaultSweep Links = sweepSingleLinkFaults(G);
    EXPECT_EQ(Links.AlwaysConnected, SerialLinks.AlwaysConnected);
    EXPECT_EQ(Links.WorstDiameter, SerialLinks.WorstDiameter);
    EXPECT_EQ(Links.FaultFreeDiameter, SerialLinks.FaultFreeDiameter);
    EXPECT_EQ(Links.ScenariosTried, SerialLinks.ScenariosTried);
    SingleFaultSweep Nodes = sweepSingleNodeFaults(G);
    EXPECT_EQ(Nodes.AlwaysConnected, SerialNodes.AlwaysConnected);
    EXPECT_EQ(Nodes.WorstDiameter, SerialNodes.WorstDiameter);
    EXPECT_EQ(Nodes.ScenariosTried, SerialNodes.ScenariosTried);
  }
  setGlobalThreadCount(0);
}

TEST(Faults, ReachabilityMatchesAllPairsOnHealthyGraph) {
  Csr G = mesh2D(3, 3);
  ReachabilityAnalysis Reach = analyzeReachabilityUnderFaults(G, FaultSet());
  DistanceStats Stats = msAllPairsStats(G);
  EXPECT_TRUE(Reach.Connected);
  EXPECT_EQ(Reach.HealthyNodes, 9u);
  EXPECT_EQ(Reach.ReachableOrderedPairs, 9u * 8u);
  EXPECT_EQ(Reach.Diameter, Stats.Diameter);
}

//===----------------------------------------------------------------------===//
// FaultAnalysisDifferential: both analyses fold whole lane masks with one
// popcount per (node, level) over a surviving Csr built straight from the
// fault set. They must match, field by field, a per-lane oracle: one
// scalar oracle::bfs() per healthy source over oracle::applyFaults.
//===----------------------------------------------------------------------===//

namespace {

struct OracleAnalyses {
  FaultAnalysis Fault;
  ReachabilityAnalysis Reach;
};

OracleAnalyses oracleAnalyses(const Csr &G, const FaultSet &Faults) {
  Csr Surviving = oracle::applyFaults(G, Faults);
  std::vector<NodeId> Healthy;
  for (NodeId Node = 0; Node != G.numNodes(); ++Node)
    if (!Faults.nodeFailed(Node))
      Healthy.push_back(Node);
  OracleAnalyses Ref;
  Ref.Fault.HealthyNodes = Ref.Reach.HealthyNodes = Healthy.size();
  if (Healthy.empty())
    return Ref;
  bool Connected = true;
  uint32_t MaxEccentricity = 0;
  for (NodeId Src : Healthy) {
    oracle::BfsResult Lane = oracle::bfs(Surviving, Src);
    Ref.Reach.ReachableOrderedPairs += Lane.NumReached - 1;
    Connected = Connected && Lane.NumReached == Healthy.size();
    MaxEccentricity = std::max(MaxEccentricity, Lane.Eccentricity);
  }
  Ref.Fault.Connected = Ref.Reach.Connected = Connected;
  Ref.Fault.Diameter = Ref.Reach.Diameter = Connected ? MaxEccentricity : 0;
  return Ref;
}

void expectAnalysesMatchOracle(const Csr &G, const FaultSet &Faults,
                               const std::string &What) {
  OracleAnalyses Ref = oracleAnalyses(G, Faults);
  FaultAnalysis Fault = analyzeUnderFaults(G, Faults);
  EXPECT_EQ(Fault.HealthyNodes, Ref.Fault.HealthyNodes) << What;
  EXPECT_EQ(Fault.Connected, Ref.Fault.Connected) << What;
  EXPECT_EQ(Fault.Diameter, Ref.Fault.Diameter) << What;
  ReachabilityAnalysis Reach = analyzeReachabilityUnderFaults(G, Faults);
  EXPECT_EQ(Reach.HealthyNodes, Ref.Reach.HealthyNodes) << What;
  EXPECT_EQ(Reach.ReachableOrderedPairs, Ref.Reach.ReachableOrderedPairs)
      << What;
  EXPECT_EQ(Reach.Connected, Ref.Reach.Connected) << What;
  EXPECT_EQ(Reach.Diameter, Ref.Reach.Diameter) << What;
}

enum class FaultKind { Links, DirectedArcs, Nodes, Mixed };

/// Fails each component with probability Permille / 1000, from a seeded
/// stream over a fixed component order. Mixed fails nodes and links in one
/// set.
FaultSet randomFaults(const Csr &G, FaultKind Kind, unsigned Permille,
                      uint64_t Seed) {
  SplitMix64 Rng(Seed);
  FaultSet Faults;
  for (NodeId From = 0; From != G.numNodes(); ++From) {
    if (Kind == FaultKind::Nodes || Kind == FaultKind::Mixed) {
      if (Rng.nextBelow(1000) < Permille)
        Faults.failNode(From);
      if (Kind == FaultKind::Nodes)
        continue;
    }
    for (NodeId To : G.neighbors(From))
      if (Rng.nextBelow(1000) < Permille) {
        if (Kind != FaultKind::DirectedArcs)
          Faults.failLink(From, To);
        else
          Faults.failDirectedLink(From, To);
      }
  }
  return Faults;
}

std::vector<SuperCayleyGraph> differentialFamilies() {
  return {SuperCayleyGraph::star(5),
          SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2),
          SuperCayleyGraph::rotator(5)};
}

} // namespace

TEST(FaultAnalysisDifferential, RandomFaultSetsMatchPerLaneOracle) {
  for (const SuperCayleyGraph &Scg : differentialFamilies()) {
    Csr G = ExplicitScg(Scg).toCsr();
    for (FaultKind Kind : {FaultKind::Links, FaultKind::DirectedArcs,
                           FaultKind::Nodes, FaultKind::Mixed})
      for (unsigned Permille : {10u, 50u, 200u, 500u})
        for (uint64_t Seed = 1; Seed != 5; ++Seed)
          expectAnalysesMatchOracle(
              G, randomFaults(G, Kind, Permille, Seed),
              Scg.name() + " kind " + std::to_string(int(Kind)) + " rate " +
                  std::to_string(Permille) + "/1000 seed " +
                  std::to_string(Seed));
  }
}

TEST(FaultAnalysisDifferential, HealthyCountEdgeCases) {
  for (const SuperCayleyGraph &Scg : differentialFamilies()) {
    Csr G = ExplicitScg(Scg).toCsr();
    const NodeId N = G.numNodes(); // 120: one full batch and a 56-lane tail.
    // Keep exactly Keep healthy nodes (the lowest ids after an offset, so
    // the survivors are not just a prefix).
    for (NodeId Keep : {NodeId(0), NodeId(1), NodeId(2), NodeId(63),
                        NodeId(64), NodeId(65), NodeId(117), N}) {
      FaultSet Faults;
      for (NodeId Node = 0; Node != N; ++Node)
        if ((Node + 7) % N >= Keep)
          Faults.failNode(Node);
      std::string What = Scg.name() + " healthy " + std::to_string(Keep);
      expectAnalysesMatchOracle(G, Faults, What);
      EXPECT_EQ(analyzeUnderFaults(G, Faults).HealthyNodes, Keep) << What;
    }
    // One healthy node: connected, diameter 0, no ordered pairs.
    FaultSet Single;
    for (NodeId Node = 1; Node != N; ++Node)
      Single.failNode(Node);
    ReachabilityAnalysis Reach = analyzeReachabilityUnderFaults(G, Single);
    EXPECT_TRUE(Reach.Connected) << Scg.name();
    EXPECT_EQ(Reach.ReachableOrderedPairs, 0u) << Scg.name();
    EXPECT_EQ(Reach.Diameter, 0u) << Scg.name();
    // No healthy node: nothing to be connected.
    FaultSet None;
    for (NodeId Node = 0; Node != N; ++Node)
      None.failNode(Node);
    EXPECT_FALSE(analyzeUnderFaults(G, None).Connected) << Scg.name();
    EXPECT_FALSE(analyzeReachabilityUnderFaults(G, None).Connected)
        << Scg.name();
  }
}

TEST(FaultAnalysisDifferential, IsolatedHealthyNodes) {
  for (const SuperCayleyGraph &Scg : differentialFamilies()) {
    Csr G = ExplicitScg(Scg).toCsr();
    // Cut every arc into and out of node 5 (first batch) and node 100
    // (tail batch) while both stay healthy: each still visits itself.
    FaultSet Faults;
    for (NodeId Isolated : {NodeId(5), NodeId(100)})
      for (NodeId From = 0; From != G.numNodes(); ++From)
        for (NodeId To : G.neighbors(From))
          if (From == Isolated || To == Isolated)
            Faults.failLink(From, To);
    expectAnalysesMatchOracle(G, Faults, Scg.name() + " two isolated");
    ReachabilityAnalysis Reach = analyzeReachabilityUnderFaults(G, Faults);
    EXPECT_FALSE(Reach.Connected) << Scg.name();
    // The other 118 nodes stay mutually connected; the isolated pair sees
    // nobody and nobody sees them.
    EXPECT_EQ(Reach.ReachableOrderedPairs, 118u * 117u) << Scg.name();
    // Only node 100 isolated: the first batch is connected, the tail is
    // not, so the early exit happens in the second batch.
    FaultSet Tail;
    for (NodeId From = 0; From != G.numNodes(); ++From)
      for (NodeId To : G.neighbors(From))
        if (From == 100 || To == 100)
          Tail.failLink(From, To);
    expectAnalysesMatchOracle(G, Tail, Scg.name() + " tail isolated");
  }
}

TEST(FaultAnalysisDifferential, OneUnreachablePair) {
  // The smallest disconnect the counting sink must see: one directed arc
  // of a two-node link fails, so the batch is one lane-visit short.
  Csr G = oracle::undirectedGraph(2, {{0, 1}});
  FaultSet Faults;
  Faults.failDirectedLink(1, 0);
  expectAnalysesMatchOracle(G, Faults, "one unreachable pair");
  EXPECT_FALSE(analyzeUnderFaults(G, Faults).Connected);
  ReachabilityAnalysis Reach = analyzeReachabilityUnderFaults(G, Faults);
  EXPECT_FALSE(Reach.Connected);
  EXPECT_EQ(Reach.ReachableOrderedPairs, 1u);
}

TEST(FaultAnalysisDifferential, AllLinksFailed) {
  for (const SuperCayleyGraph &Scg : differentialFamilies()) {
    Csr G = ExplicitScg(Scg).toCsr();
    FaultSet Faults;
    for (NodeId From = 0; From != G.numNodes(); ++From)
      for (NodeId To : G.neighbors(From))
        Faults.failDirectedLink(From, To);
    expectAnalysesMatchOracle(G, Faults, Scg.name() + " all links failed");
    ReachabilityAnalysis Reach = analyzeReachabilityUnderFaults(G, Faults);
    EXPECT_EQ(Reach.HealthyNodes, G.numNodes()) << Scg.name();
    EXPECT_EQ(Reach.ReachableOrderedPairs, 0u) << Scg.name();
    EXPECT_FALSE(Reach.Connected) << Scg.name();
  }
}

namespace {

/// Fails both directions of every link with exactly one end in \p Part.
void cutOff(const Csr &G, const std::vector<NodeId> &Part,
            FaultSet &Faults) {
  auto Inside = [&](NodeId Node) {
    return std::find(Part.begin(), Part.end(), Node) != Part.end();
  };
  for (NodeId From = 0; From != G.numNodes(); ++From)
    for (NodeId To : G.neighbors(From))
      if (Inside(From) != Inside(To))
        Faults.failLink(From, To);
}

/// A walk of \p Length distinct nodes from \p Start, each step to the
/// lowest-id out-neighbor not yet on the walk or in \p Taken.
std::vector<NodeId> walkFrom(const Csr &G, NodeId Start, size_t Length,
                             const std::vector<NodeId> &Taken) {
  std::vector<NodeId> Walk{Start};
  while (Walk.size() != Length) {
    std::vector<NodeId> Next(G.neighbors(Walk.back()).begin(),
                             G.neighbors(Walk.back()).end());
    std::sort(Next.begin(), Next.end());
    auto Free = std::find_if(Next.begin(), Next.end(), [&](NodeId Node) {
      return std::find(Walk.begin(), Walk.end(), Node) == Walk.end() &&
             std::find(Taken.begin(), Taken.end(), Node) == Taken.end();
    });
    EXPECT_NE(Free, Next.end()) << "walk from " << Start << " is stuck";
    if (Free == Next.end())
      break;
    Walk.push_back(*Free);
  }
  return Walk;
}

} // namespace

TEST(FaultAnalysisDifferential, SplitsIntoComponentsOfDistinctSizes) {
  for (const SuperCayleyGraph &Scg : differentialFamilies()) {
    Csr G = ExplicitScg(Scg).toCsr();
    // Two isolated healthy nodes (one per batch), a pair, a four-node path
    // and the rest (112 nodes); then node 60, kept off the walks, fails
    // inside the rest.
    std::vector<NodeId> Taken{5, 100, 60};
    std::vector<NodeId> Pair = walkFrom(G, 30, 2, Taken);
    Taken.insert(Taken.end(), Pair.begin(), Pair.end());
    std::vector<NodeId> Path = walkFrom(G, 80, 4, Taken);
    FaultSet Faults;
    cutOff(G, {5}, Faults);
    cutOff(G, {100}, Faults);
    cutOff(G, Pair, Faults);
    cutOff(G, Path, Faults);
    std::string What = Scg.name() + " split";
    expectAnalysesMatchOracle(G, Faults, What);
    ReachabilityAnalysis Reach = analyzeReachabilityUnderFaults(G, Faults);
    EXPECT_FALSE(Reach.Connected) << What;
    if (Scg.isUndirected()) {
      EXPECT_EQ(Reach.ReachableOrderedPairs,
                2u * 1u + 4u * 3u + 112u * 111u)
          << What;
    }
    // A failed node inside the rest: 111 healthy nodes left there.
    Faults.failNode(60);
    expectAnalysesMatchOracle(G, Faults, What + " + failed node");
    if (Scg.isUndirected()) {
      EXPECT_EQ(analyzeReachabilityUnderFaults(G, Faults)
                    .ReachableOrderedPairs,
                2u * 1u + 4u * 3u + 111u * 110u)
          << What;
    }
  }
}

TEST(FaultAnalysisDifferential, ReversePairedArcFaults) {
  for (const SuperCayleyGraph &Scg : differentialFamilies()) {
    Csr G = ExplicitScg(Scg).toCsr();
    for (unsigned Permille : {200u, 500u})
      for (uint64_t Seed = 1; Seed != 5; ++Seed) {
        // Both directions of each drawn link fail, one failDirectedLink
        // at a time: a symmetric set built from one-way faults.
        SplitMix64 Rng(Seed);
        std::vector<std::pair<NodeId, NodeId>> Arcs;
        for (NodeId From = 0; From != G.numNodes(); ++From)
          for (NodeId To : G.neighbors(From))
            if (From < To && Rng.nextBelow(1000) < Permille)
              Arcs.push_back({From, To});
        ASSERT_FALSE(Arcs.empty());
        FaultSet Paired;
        for (const auto &[From, To] : Arcs) {
          Paired.failDirectedLink(From, To);
          Paired.failDirectedLink(To, From);
        }
        std::string What = Scg.name() + " rate " + std::to_string(Permille) +
                           "/1000 seed " + std::to_string(Seed);
        expectAnalysesMatchOracle(G, Paired, What + " paired");
        // The same set without the reverse of its last arc: one one-way
        // fault, so reachability is no longer symmetric.
        FaultSet OneWay;
        for (size_t I = 0; I != Arcs.size(); ++I) {
          OneWay.failDirectedLink(Arcs[I].first, Arcs[I].second);
          if (I + 1 != Arcs.size())
            OneWay.failDirectedLink(Arcs[I].second, Arcs[I].first);
        }
        expectAnalysesMatchOracle(G, OneWay, What + " one way");
      }
  }
}

// Regression: ids outside the graph used to be ignored, so a fault set
// with numFailedNodes() == 1 left all 24 nodes of star(4) healthy and
// connected. Both analyses throw in every build instead.
TEST(Faults, OutOfRangeIdsThrow) {
  Csr G = ExplicitScg(SuperCayleyGraph::star(4)).toCsr();
  FaultSet Node;
  Node.failNode(29);
  FaultSet Link;
  Link.failLink(0, 33);
  FaultSet Arc;
  Arc.failDirectedLink(24, 0);
  for (const FaultSet *Faults : {&Node, &Link, &Arc}) {
    EXPECT_THROW(analyzeUnderFaults(G, *Faults), std::invalid_argument);
    EXPECT_THROW(analyzeReachabilityUnderFaults(G, *Faults),
                 std::invalid_argument);
  }
  // The largest valid id is accepted.
  FaultSet Last;
  Last.failNode(23);
  Last.failLink(0, 23);
  EXPECT_EQ(analyzeUnderFaults(G, Last).HealthyNodes, 23u);
}
