//===- tests/KernelDifferentialTest.cpp - Kernel differential pins -------===//
//
// Differential tests for the rank-space kernels:
//
//  * The parallel ExplicitScg build must produce a Next table byte-identical
//    to the forced-serial build at every thread count (each slot is a pure
//    function of its rank, written exactly once -- see Explicit.cpp).
//  * The library's one distance kernel, msBfsCore, must agree with the
//    scalar oracle::bfs (tests/Oracles.h): its one-byte distance rows
//    byte for byte, and the single-source statistics of
//    vertexTransitiveStats and teLowerBound, which fold its levels.
//
// All are pinned across every network family at k = 5; the statistics
// also on the classic guests and a disconnected graph.
//
//===----------------------------------------------------------------------===//

#include "comm/TotalExchange.h"
#include "graph/Metrics.h"
#include "graph/MsBfs.h"
#include "networks/Classic.h"
#include "networks/Explicit.h"
#include "support/ThreadPool.h"

#include "Oracles.h"

#include <gtest/gtest.h>

using namespace scg;

namespace {

/// Every network family the library implements, materialized at k = 5:
/// the four classic single-level networks, a transposition tree between the
/// star/bubble-sort extremes, and all ten super Cayley graph classes
/// ((l, n) = (2, 2); the rotator-nucleus classes also at (4, 1) where the
/// n = 1 degeneracy makes them undirected).
std::vector<SuperCayleyGraph> allFamiliesK5() {
  std::vector<SuperCayleyGraph> Nets;
  Nets.push_back(SuperCayleyGraph::star(5));
  Nets.push_back(SuperCayleyGraph::bubbleSort(5));
  Nets.push_back(SuperCayleyGraph::transpositionNetwork(5));
  Nets.push_back(SuperCayleyGraph::rotator(5));
  Nets.push_back(SuperCayleyGraph::insertionSelection(5));
  Nets.push_back(
      SuperCayleyGraph::transpositionTree(5, {{1, 2}, {2, 3}, {2, 4}, {4, 5}}));
  for (NetworkKind Kind :
       {NetworkKind::MacroStar, NetworkKind::RotationStar,
        NetworkKind::CompleteRotationStar, NetworkKind::MacroRotator,
        NetworkKind::RotationRotator, NetworkKind::CompleteRotationRotator,
        NetworkKind::MacroIS, NetworkKind::RotationIS,
        NetworkKind::CompleteRotationIS})
    Nets.push_back(SuperCayleyGraph::create(Kind, 2, 2));
  for (NetworkKind Kind : {NetworkKind::MacroRotator,
                           NetworkKind::RotationRotator, NetworkKind::MacroIS})
    Nets.push_back(SuperCayleyGraph::create(Kind, 4, 1));
  return Nets;
}

TEST(KernelDifferential, ParallelBuildMatchesSerialByteForByte) {
  for (const SuperCayleyGraph &Scg : allFamiliesK5()) {
    setGlobalThreadCount(1);
    ExplicitScg Serial(Scg);
    for (unsigned Threads : {2u, 3u, 8u}) {
      setGlobalThreadCount(Threads);
      ExplicitScg Parallel(Scg);
      EXPECT_EQ(Serial.nextTable(), Parallel.nextTable())
          << Scg.name() << " at " << Threads << " threads";
    }
    setGlobalThreadCount(0);
  }
}

TEST(KernelDifferential, ParallelBuildMatchesSerialStar8) {
  // One larger instance so chunking actually splits (40320 ranks).
  SuperCayleyGraph Star = SuperCayleyGraph::star(8);
  setGlobalThreadCount(1);
  ExplicitScg Serial(Star);
  setGlobalThreadCount(4);
  ExplicitScg Parallel(Star);
  setGlobalThreadCount(0);
  EXPECT_EQ(Serial.nextTable(), Parallel.nextTable());
}

TEST(KernelDifferential, BfsAgreesWithReferenceOnEveryFamily) {
  for (const SuperCayleyGraph &Scg : allFamiliesK5()) {
    Csr G = ExplicitScg(Scg).toCsr();
    for (NodeId Source : {NodeId(0), NodeId(G.numNodes() - 1)}) {
      oracle::BfsResult Ref = oracle::bfs(G, Source);
      // Cayley graphs on S_k with a generating set reach all k! nodes, so
      // every distance fits the row's byte.
      ASSERT_EQ(Ref.NumReached, G.numNodes()) << Scg.name();
      std::vector<uint8_t> Want(Ref.Distance.begin(), Ref.Distance.end());
      EXPECT_EQ(msBfsDistanceRow(G, Source), Want)
          << Scg.name() << " from " << Source;
      // Sanity on the oracle itself: parents sit one level up.
      for (NodeId V = 0; V != G.numNodes(); ++V)
        if (V != Source) {
          EXPECT_EQ(Ref.Distance[Ref.Parent[V]] + 1, Ref.Distance[V]);
        }
    }
  }
}

/// The single-source statistics from \p Rep must be the oracle's: reach,
/// eccentricity, and the distance sum over N - 1 (bit for bit, since both
/// divide the same integer), whether or not \p G is connected.
void expectStatsMatchOracle(const Csr &G, NodeId Rep, const std::string &What) {
  oracle::BfsResult Ref = oracle::bfs(G, Rep);
  DistanceStats Stats = vertexTransitiveStats(G, Rep);
  EXPECT_EQ(Stats.Connected, Ref.NumReached == G.numNodes()) << What;
  EXPECT_EQ(Stats.Diameter, Ref.Eccentricity) << What;
  EXPECT_EQ(Stats.AverageDistance,
            double(Ref.DistanceSum) / (G.numNodes() - 1))
      << What;
}

TEST(KernelDifferential, SingleSourceStatsMatchOracle) {
  for (const SuperCayleyGraph &Scg : allFamiliesK5()) {
    ExplicitScg Net(Scg);
    Csr G = Net.toCsr();
    for (NodeId Rep : {NodeId(0), NodeId(17), NodeId(G.numNodes() - 1)})
      expectStatsMatchOracle(G, Rep, Scg.name() + " from " +
                                         std::to_string(Rep));
    // Total exchange moves N * sum-of-distances packet-hops over N * degree
    // links per step.
    uint64_t Sum = oracle::bfs(G, 0).DistanceSum;
    EXPECT_EQ(teLowerBound(Net), (Sum + Net.degree() - 1) / Net.degree())
        << Scg.name();
  }
  // The guests are not vertex-transitive: each representative has its own
  // eccentricity and distance sum.
  for (const Csr &G : {hypercube(4), mesh2D(3, 4), mixedRadixMesh({2, 3, 4}),
                       completeBinaryTree(4)})
    for (NodeId Rep : {NodeId(0), NodeId(G.numNodes() / 2),
                       NodeId(G.numNodes() - 1)})
      expectStatsMatchOracle(G, Rep, "guest on " +
                                         std::to_string(G.numNodes()) +
                                         " nodes from " + std::to_string(Rep));
  // Disconnected: the reached part's figures, not zeros.
  Csr Split = oracle::undirectedGraph(7, {{0, 1}, {1, 2}, {3, 4}, {4, 5},
                                          {5, 6}});
  for (NodeId Rep = 0; Rep != Split.numNodes(); ++Rep)
    expectStatsMatchOracle(Split, Rep, "split from " + std::to_string(Rep));
  DistanceStats FromZero = vertexTransitiveStats(Split, 0);
  EXPECT_FALSE(FromZero.Connected);
  EXPECT_EQ(FromZero.Diameter, 2u);
  EXPECT_EQ(FromZero.AverageDistance, 3.0 / 6.0);
}

} // namespace
