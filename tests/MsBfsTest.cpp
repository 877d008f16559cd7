//===- tests/MsBfsTest.cpp - Bit-parallel multi-source BFS pins ----------===//
//
// Differential tests for the bit-parallel distance engine (graph/MsBfs.h):
//
//  * msBfsDistances and the per-lane oracle::msBfs sink (tests/Oracles.h)
//    must agree with one scalar bfs() per source -- distances,
//    eccentricity, reached count, and distance sum, per lane -- on every
//    network family at k = 5, from both Csr builds (the arc-list
//    constructor and ExplicitScg::toCsr's table adoption).
//  * Source lists that are not a multiple (or a divisor) of 64 lanes, in
//    arbitrary order, with duplicates.
//  * Disconnected and faulted graphs: unreached nodes, per-lane reached
//    counts, and the Connected=false sweep result at 1/2/8 threads.
//  * msAllPairsStats == scalarAllPairsStats everywhere,
//    and parallel == serial byte-identity at 1/2/8 threads, directed
//    rotator included (the determinism contract, under the `parallel`
//    ctest label; the CSR sweep's cases live in the MsBfsHybrid suite).
//  * Allocation reuse: with a warm scratch, a whole sweep's worth of
//    batches performs zero heap allocations (tests/AllocCounter.cpp
//    counts every allocation in this binary).
//  * Csr::transpose on a directed graph: the true reverse edge set, and
//    transposing twice restores every adjacency set.
//
//===----------------------------------------------------------------------===//

#include "graph/Faults.h"
#include "graph/Metrics.h"
#include "graph/MsBfs.h"
#include "networks/Classic.h"
#include "networks/Explicit.h"
#include "support/ThreadPool.h"

#include "AllocCounter.h"
#include "Oracles.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>
#include <utility>

using namespace scg;

namespace {

/// Every network family the library implements, materialized at k = 5
/// (mirrors KernelDifferentialTest::allFamiliesK5).
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
  return Nets;
}

/// Checks one batch of sources against one scalar bfs() per source:
/// distance rows byte-equal, per-lane stats equal.
void expectBatchMatchesScalar(const Csr &G, const Csr &C,
                              std::span<const NodeId> Sources,
                              const std::string &What) {
  oracle::MsBfsBatch Batch = oracle::msBfs(C, Sources);
  std::vector<std::vector<uint32_t>> Rows = oracle::msBfsDistances(C, Sources);
  ASSERT_EQ(Batch.Eccentricity.size(), Sources.size()) << What;
  ASSERT_EQ(Rows.size(), Sources.size()) << What;
  for (size_t Lane = 0; Lane != Sources.size(); ++Lane) {
    BfsResult Ref = bfs(G, Sources[Lane]);
    EXPECT_EQ(Rows[Lane], Ref.Distance)
        << What << " lane " << Lane << " source " << Sources[Lane];
    EXPECT_EQ(Batch.Eccentricity[Lane], Ref.Eccentricity) << What << " lane "
                                                          << Lane;
    EXPECT_EQ(Batch.NumReached[Lane], Ref.NumReached) << What << " lane "
                                                      << Lane;
    EXPECT_EQ(Batch.DistanceSum[Lane], Ref.DistanceSum) << What << " lane "
                                                        << Lane;
  }
}

bool bitEqual(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

void expectSameStats(const DistanceStats &A, const DistanceStats &B,
                     const std::string &What) {
  EXPECT_EQ(A.Connected, B.Connected) << What;
  EXPECT_EQ(A.Diameter, B.Diameter) << What;
  EXPECT_TRUE(bitEqual(A.AverageDistance, B.AverageDistance)) << What;
}

template <typename Fn> auto withThreads(unsigned Threads, Fn &&F) {
  setGlobalThreadCount(Threads);
  auto Result = F();
  setGlobalThreadCount(0);
  return Result;
}

TEST(MsBfs, MatchesScalarOnEveryFamilyFullSourceSet) {
  for (const SuperCayleyGraph &Scg : allFamiliesK5()) {
    ExplicitScg Net(Scg);
    Csr G = Net.toCsr();
    std::vector<std::pair<NodeId, NodeId>> Arcs;
    for (NodeId U = 0; U != Net.numNodes(); ++U)
      for (GenIndex Gen = 0; Gen != Net.degree(); ++Gen)
        Arcs.push_back({U, Net.next(U, Gen)});
    Csr FromArcs(Net.numNodes(), Arcs);
    // All 120 nodes as sources: batches of 64 + a 56-lane tail, from both
    // CSR builds.
    std::vector<NodeId> All(Net.numNodes());
    std::iota(All.begin(), All.end(), 0);
    for (size_t Begin = 0; Begin < All.size(); Begin += MsBfsLanes) {
      size_t Count = std::min<size_t>(MsBfsLanes, All.size() - Begin);
      auto Chunk = std::span(All).subspan(Begin, Count);
      expectBatchMatchesScalar(G, FromArcs, Chunk,
                               Scg.name() + " csr(arcs)");
      expectBatchMatchesScalar(G, G, Chunk, Scg.name() + " csr(table)");
    }
  }
}

TEST(MsBfs, OddSourceCountsAndDuplicates) {
  ExplicitScg Net(SuperCayleyGraph::star(5));
  Csr G = Net.toCsr();
  const Csr &C = G;
  // 1, 2, 37, 63, 64 lanes; scattered, unordered, with a duplicate node.
  std::vector<NodeId> Scattered;
  for (NodeId I = 0; I != 63; ++I)
    Scattered.push_back((I * 37 + 11) % Net.numNodes());
  Scattered[20] = Scattered[3]; // duplicated source on two lanes.
  for (size_t Count : {size_t(1), size_t(2), size_t(37), size_t(63),
                       size_t(Scattered.size())})
    expectBatchMatchesScalar(G, C, std::span(Scattered).first(Count),
                             "star5 scattered " + std::to_string(Count));
  std::vector<NodeId> Full(64, 0);
  std::iota(Full.begin(), Full.end(), NodeId(17));
  expectBatchMatchesScalar(G, C, Full, "star5 full word");
}

TEST(MsBfs, DisconnectedGraphPerLaneReach) {
  // Two components (a 4-path and a 3-cycle) plus an isolated node.
  Csr G = oracle::undirectedGraph(
      8, {{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}, {6, 4}});
  const Csr &C = G;
  std::vector<NodeId> Sources(8);
  std::iota(Sources.begin(), Sources.end(), 0);
  expectBatchMatchesScalar(G, C, Sources, "two components");
  oracle::MsBfsBatch Batch = oracle::msBfs(C, Sources);
  EXPECT_EQ(Batch.NumReached[0], 4u);
  EXPECT_EQ(Batch.NumReached[4], 3u);
  EXPECT_EQ(Batch.NumReached[7], 1u); // the isolated node reaches itself.
  EXPECT_EQ(Batch.Eccentricity[7], 0u);
  EXPECT_EQ(Batch.DistanceSum[7], 0u);
  expectSameStats(msAllPairsStats(G), scalarAllPairsStats(G), "disconnected");
  EXPECT_FALSE(msAllPairsStats(G).Connected);
}

TEST(MsBfs, FaultedGraphMatchesScalar) {
  ExplicitScg Net(SuperCayleyGraph::star(5));
  Csr G = Net.toCsr();
  FaultSet Faults;
  Faults.failNode(7);
  Faults.failNode(63);
  Faults.failLink(0, G.neighbors(0)[0]);
  Csr Surviving = oracle::applyFaults(G, Faults);
  const Csr &C = Surviving;
  std::vector<NodeId> Sources;
  for (NodeId Node = 0; Node != Surviving.numNodes(); ++Node)
    if (!Faults.nodeFailed(Node))
      Sources.push_back(Node);
  for (size_t Begin = 0; Begin < Sources.size(); Begin += MsBfsLanes)
    expectBatchMatchesScalar(
        Surviving, C,
        std::span(Sources).subspan(
            Begin, std::min<size_t>(MsBfsLanes, Sources.size() - Begin)),
        "faulted star5");
  expectSameStats(msAllPairsStats(Surviving), scalarAllPairsStats(Surviving),
                  "faulted star5 sweep");
}

TEST(MsBfs, AllPairsMatchesScalarEngineOnEveryFamily) {
  for (const SuperCayleyGraph &Scg : allFamiliesK5()) {
    Csr G = ExplicitScg(Scg).toCsr();
    expectSameStats(msAllPairsStats(G), scalarAllPairsStats(G), Scg.name());
  }
  // Non-vertex-transitive guests take the same engine.
  for (const Csr &G : {mesh2D(4, 5), completeBinaryTree(4), hypercube(5)})
    expectSameStats(msAllPairsStats(G), scalarAllPairsStats(G), "guest");
}

TEST(MsBfs, AllPairsMatchesScalarAtK6) {
  // One larger instance (720 nodes: 12 batches) per acceptance criteria.
  Csr G = ExplicitScg(SuperCayleyGraph::star(6)).toCsr();
  expectSameStats(msAllPairsStats(G), scalarAllPairsStats(G), "star6");
  Csr R = ExplicitScg(SuperCayleyGraph::rotator(6)).toCsr();
  expectSameStats(msAllPairsStats(R), scalarAllPairsStats(R),
                  "rotator6 (directed)");
}

TEST(MsBfs, ParallelSerialByteIdentity) {
  for (const SuperCayleyGraph &Scg :
       {SuperCayleyGraph::star(6),
        SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2)}) {
    Csr G = ExplicitScg(Scg).toCsr();
    DistanceStats Ref = withThreads(1, [&] { return msAllPairsStats(G); });
    for (unsigned Threads : {2u, 8u})
      expectSameStats(Ref, withThreads(Threads, [&] {
                        return msAllPairsStats(G);
                      }),
                      Scg.name() + " @" + std::to_string(Threads));
  }
}

// The MsBfsHybrid suite is named for the direction-optimizing engine it
// once pinned against push; with push the only engine, its two remaining
// tests pin the CSR sweep entry point, msAllPairsStats(const Csr&).

TEST(MsBfsHybrid, FaultedAndDisconnectedGraphs) {
  // Faulted star(5): node + link failures leave an irregular survivor.
  ExplicitScg Net(SuperCayleyGraph::star(5));
  Csr G = Net.toCsr();
  FaultSet Faults;
  Faults.failNode(7);
  Faults.failNode(63);
  Faults.failLink(0, G.neighbors(0)[0]);
  Csr Surviving = oracle::applyFaults(G, Faults);
  expectSameStats(msAllPairsStats(Surviving),
                  scalarAllPairsStats(Surviving), "faulted star5 sweep");

  // Two components plus an isolated node: the sweep reports
  // Connected = false at every thread count.
  Csr Two = oracle::undirectedGraph(
      8, {{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}, {6, 4}});
  for (unsigned Threads : {1u, 2u, 8u}) {
    DistanceStats Stats =
        withThreads(Threads, [&] { return msAllPairsStats(Two); });
    EXPECT_FALSE(Stats.Connected) << Threads;
    expectSameStats(Stats, scalarAllPairsStats(Two),
                    "two components @" + std::to_string(Threads));
  }
}

TEST(MsBfsHybrid, SweepEnginesByteIdenticalAcrossThreadCounts) {
  for (const SuperCayleyGraph &Scg :
       {SuperCayleyGraph::star(6), SuperCayleyGraph::rotator(6),
        SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2)}) {
    ExplicitScg Net(Scg);
    Csr C = Net.toCsr();
    DistanceStats Ref = withThreads(1, [&] { return msAllPairsStats(C); });
    expectSameStats(Ref, scalarAllPairsStats(Net.toCsr()),
                    Scg.name() + " scalar");
    for (unsigned Threads : {2u, 8u})
      expectSameStats(Ref, withThreads(Threads, [&] {
                        return msAllPairsStats(C);
                      }),
                      Scg.name() + " @" + std::to_string(Threads));
  }
}

TEST(MsBfs, WarmBatchesAreAllocationFree) {
  // A sweep runs tens of thousands of batches through one warm scratch
  // per worker; per-batch heap growth would reintroduce the malloc storm
  // support/Scratch.h exists to prevent. One cold pass warms the buffers
  // (and proves warm results match cold ones), then a full all-sources
  // pass must not allocate at all. The sink accumulates into locals, so
  // any allocation counted here is engine-internal.
  Csr C = ExplicitScg(SuperCayleyGraph::star(5)).toCsr();
  const NodeId N = C.numNodes();
  std::vector<NodeId> All(N);
  std::iota(All.begin(), All.end(), 0);
  MsBfsScratch Scratch;
  auto RunAll = [&](uint64_t &Sum, uint64_t &Visits) {
    for (size_t Begin = 0; Begin < All.size(); Begin += MsBfsLanes) {
      size_t Count = std::min<size_t>(MsBfsLanes, All.size() - Begin);
      msBfsCore(
          C, std::span(All).subspan(Begin, Count),
          [&](NodeId, uint64_t Mask, uint32_t Level) {
            Sum += uint64_t(Level) * uint64_t(std::popcount(Mask));
            Visits += uint64_t(std::popcount(Mask));
          },
          &Scratch);
    }
  };
  uint64_t ColdSum = 0, ColdVisits = 0;
  RunAll(ColdSum, ColdVisits); // cold: buffers grow once.
  uint64_t WarmSum = 0, WarmVisits = 0;
  uint64_t Before = test::heapAllocations();
  RunAll(WarmSum, WarmVisits);
  uint64_t After = test::heapAllocations();
  EXPECT_EQ(After, Before) << "warm MS-BFS batches touched the heap";
  EXPECT_EQ(ColdSum, WarmSum);
  EXPECT_EQ(ColdVisits, WarmVisits);
  EXPECT_EQ(WarmVisits, uint64_t(N) * N); // connected: every lane, every node.
}

TEST(MsBfs, TransposeOfDirectedRotator) {
  // rotator(5) is directed, so its transpose genuinely differs from the
  // forward CSR: T holds exactly the reversed edges, and transposing
  // twice restores every node's adjacency set.
  Csr C = ExplicitScg(SuperCayleyGraph::rotator(5)).toCsr();
  Csr T = C.transpose();
  ASSERT_EQ(T.numNodes(), C.numNodes());
  EXPECT_EQ(T.numEdges(), C.numEdges());
  std::vector<std::pair<NodeId, NodeId>> Reversed, FromT;
  for (NodeId V = 0; V != C.numNodes(); ++V) {
    for (NodeId W : C.neighbors(V))
      Reversed.emplace_back(W, V);
    for (NodeId U : T.neighbors(V))
      FromT.emplace_back(V, U);
  }
  std::sort(Reversed.begin(), Reversed.end());
  std::sort(FromT.begin(), FromT.end());
  EXPECT_EQ(Reversed, FromT);
  Csr Back = T.transpose();
  bool AnyRowDiffers = false;
  for (NodeId V = 0; V != C.numNodes(); ++V) {
    std::span<const NodeId> Fwd = C.neighbors(V), Twice = Back.neighbors(V),
                            Rev = T.neighbors(V);
    std::vector<NodeId> Want(Fwd.begin(), Fwd.end()),
        Got(Twice.begin(), Twice.end());
    std::sort(Want.begin(), Want.end());
    std::sort(Got.begin(), Got.end());
    EXPECT_EQ(Want, Got) << "node " << V;
    AnyRowDiffers |=
        !std::is_permutation(Rev.begin(), Rev.end(), Fwd.begin(), Fwd.end());
  }
  EXPECT_TRUE(AnyRowDiffers) << "rotator(5) should not be its own transpose";
}

TEST(MsBfs, LeanReachabilityAgreesWithBfs) {
  // The isConnectedFromZero fast path: counts must agree with full BFS on
  // connected, disconnected, and directed graphs.
  Csr Disconnected = oracle::undirectedGraph(6, {{0, 1}, {2, 3}});
  EXPECT_EQ(oracle::bfsReachableCount(Disconnected, 0),
            bfs(Disconnected, 0).NumReached);
  EXPECT_FALSE(oracle::isConnectedFromZero(Disconnected));
  for (const SuperCayleyGraph &Scg : allFamiliesK5()) {
    Csr G = ExplicitScg(Scg).toCsr();
    EXPECT_EQ(oracle::bfsReachableCount(G, 0), bfs(G, 0).NumReached)
        << Scg.name();
    EXPECT_TRUE(oracle::isConnectedFromZero(G)) << Scg.name();
  }
}

} // namespace
