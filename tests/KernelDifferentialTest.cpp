//===- tests/KernelDifferentialTest.cpp - Kernel differential pins -------===//
//
// Differential tests for the rank-space kernels:
//
//  * The parallel ExplicitScg build must produce a Next table byte-identical
//    to the forced-serial build at every thread count (each slot is a pure
//    function of its rank, written exactly once -- see Explicit.cpp).
//  * The devirtualized BFS (bfsCore / bfsExplicit / bfs) must
//    agree with a straightforward reference BFS written the way the legacy
//    engine was: std::deque frontier, std::function neighbor dispatch.
//
// Both are pinned across every network family at k = 5.
//
//===----------------------------------------------------------------------===//

#include "networks/Explicit.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <deque>
#include <functional>

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

/// Callback enumerating out-neighbors of a node: invoked with the node id,
/// must call the sink for each neighbor.
using NeighborFn =
    std::function<void(NodeId, const std::function<void(NodeId)> &)>;

/// Reference BFS, written the way the pre-devirtualization engine was:
/// std::deque frontier and type-erased per-edge dispatch. Deliberately kept
/// naive -- it is the spec the optimized traversals are pinned against.
BfsResult referenceBfs(uint64_t NumNodes, NodeId Source,
                       const NeighborFn &Neighbors) {
  BfsResult Result;
  Result.Distance.assign(NumNodes, UnreachableDistance);
  Result.Parent.assign(NumNodes, 0);
  Result.Distance[Source] = 0;
  Result.Parent[Source] = Source;
  Result.NumReached = 1;
  std::deque<NodeId> Queue{Source};
  while (!Queue.empty()) {
    NodeId Node = Queue.front();
    Queue.pop_front();
    uint32_t NextDist = Result.Distance[Node] + 1;
    Neighbors(Node, [&](NodeId Next) {
      if (Result.Distance[Next] != UnreachableDistance)
        return;
      Result.Distance[Next] = NextDist;
      Result.Parent[Next] = Node;
      Result.Eccentricity = NextDist;
      Result.DistanceSum += NextDist;
      ++Result.NumReached;
      Queue.push_back(Next);
    });
  }
  return Result;
}

void expectSameBfs(const BfsResult &A, const BfsResult &B,
                   const std::string &What) {
  EXPECT_EQ(A.Distance, B.Distance) << What;
  EXPECT_EQ(A.Parent, B.Parent) << What;
  EXPECT_EQ(A.Eccentricity, B.Eccentricity) << What;
  EXPECT_EQ(A.NumReached, B.NumReached) << What;
  EXPECT_EQ(A.DistanceSum, B.DistanceSum) << What;
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
    ExplicitScg Net(Scg);
    NeighborFn Walk = [&](NodeId Node, const std::function<void(NodeId)> &S) {
      for (GenIndex G = 0; G != Net.degree(); ++G)
        S(Net.next(Node, G));
    };
    for (NodeId Source : {NodeId(0), NodeId(Net.numNodes() - 1)}) {
      BfsResult Ref = referenceBfs(Net.numNodes(), Source, Walk);
      expectSameBfs(bfsExplicit(Net, Source), Ref,
                    Scg.name() + " bfsExplicit");
      expectSameBfs(bfsCore(Net.numNodes(), Source,
                            [&Net](NodeId Node, auto &&Sink) {
                              for (GenIndex G = 0; G != Net.degree(); ++G)
                                Sink(Net.next(Node, G));
                            }),
                    Ref, Scg.name() + " bfsCore");
      expectSameBfs(bfs(Net.toCsr(), Source), Ref, Scg.name() + " bfs");
      // Sanity on the result itself: Cayley graphs on S_k with a generating
      // set reach all k! nodes, and parents sit one level up.
      EXPECT_EQ(Ref.NumReached, Net.numNodes()) << Scg.name();
      for (NodeId V = 0; V != Net.numNodes(); ++V)
        if (V != Source) {
          EXPECT_EQ(Ref.Distance[Ref.Parent[V]] + 1, Ref.Distance[V]);
        }
    }
  }
}

} // namespace
