//===- tests/Oracles.h - Reference paths for differential tests -*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reference implementations that the library no longer runs, kept as
/// oracles for the differential tests:
///
///  * oracle::msBfs -- per-lane statistics of one bit-parallel batch,
///    peeled lane by lane from msBfsCore's masks (the library's sinks fold
///    whole masks instead);
///  * oracle::applyFaults -- the surviving network rebuilt from its arc
///    list, for the scalar bfs() (the library filters rows while it
///    flattens them);
///  * oracle::routeViaStarEmulation and oracle::routeInRotator -- scalar
///    per-pair routes (Theorems 1-3 star-route lifting, insertion-sort
///    rotator routing), each self-checked with Path.connects; the library
///    serves both through QueryEngine, which routes the relative label
///    with per-family precomputed generator words;
///  * oracle::liftedRouteBound -- slowdown * star diameter, the bound the
///    lifted routes are held to;
///  * oracle::starWordReference and oracle::starDistanceReference -- the
///    greedy star route with a fresh Permutation per move, and the
///    closed-form distance over the cycle list, which the in-place kernels
///    of routing/StarRouter.cpp are held to on every permutation of k <= 8;
///  * small helpers only tests call (graph predicates, reachability,
///    distance matrices, the cluster quotient graph, permutation sign and
///    Lehmer code, group order, generator inverses, path traces, display
///    names and the traffic metric names): the library's pipelines,
///    benches and examples never run them.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_TESTS_ORACLES_H
#define SCG_TESTS_ORACLES_H

#include "comm/Simulator.h"
#include "comm/Workload.h"
#include "emulation/DimensionMap.h"
#include "emulation/SdcEmulation.h"
#include "graph/Faults.h"
#include "graph/MsBfs.h"
#include "networks/Clusters.h"
#include "perm/GroupOrder.h"
#include "routing/BagSolver.h"
#include "routing/RotatorRouter.h"
#include "routing/StarRouter.h"

#include <algorithm>
#include <bit>
#include <bitset>
#include <cassert>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace scg::oracle {

/// Per-source results of one bit-parallel batch, indexed like the source
/// list. Field semantics match BfsResult (eccentricity = largest finite
/// distance, reached count includes the source, distance sum over finite
/// distances), so scalar and bit-parallel engines compare directly.
struct MsBfsBatch {
  std::vector<uint32_t> Eccentricity;
  std::vector<uint64_t> NumReached;
  std::vector<uint64_t> DistanceSum;
};

/// Runs one batch and accumulates the per-source statistics.
inline MsBfsBatch msBfs(const Csr &G, std::span<const NodeId> Sources) {
  MsBfsBatch Batch;
  Batch.Eccentricity.assign(Sources.size(), 0);
  Batch.NumReached.assign(Sources.size(), 0);
  Batch.DistanceSum.assign(Sources.size(), 0);
  msBfsCore(G, Sources, [&Batch](NodeId, uint64_t NewMask, uint32_t Level) {
    // Peel the newly arrived lanes; levels are ascending, so assigning the
    // eccentricity each time leaves the per-lane maximum behind.
    do {
      unsigned Lane = unsigned(std::countr_zero(NewMask));
      Batch.Eccentricity[Lane] = Level;
      ++Batch.NumReached[Lane];
      Batch.DistanceSum[Lane] += Level;
      NewMask &= NewMask - 1;
    } while (NewMask);
  });
  return Batch;
}

/// The undirected test graph on \p NumNodes nodes with edges \p Edges:
/// each edge {A, B} becomes the arcs A -> B and B -> A, in list order.
inline Csr
undirectedGraph(NodeId NumNodes,
                const std::vector<std::pair<NodeId, NodeId>> &Edges) {
  std::vector<std::pair<NodeId, NodeId>> Arcs;
  Arcs.reserve(2 * Edges.size());
  for (auto [A, B] : Edges) {
    Arcs.push_back({A, B});
    Arcs.push_back({B, A});
  }
  return Csr(NumNodes, Arcs);
}

/// Returns \p G with every failed link removed (failed nodes keep their id
/// but lose all links).
inline Csr applyFaults(const Csr &G, const FaultSet &Faults) {
  std::vector<std::pair<NodeId, NodeId>> Arcs;
  for (NodeId From = 0; From != G.numNodes(); ++From)
    for (NodeId To : G.neighbors(From))
      if (!Faults.linkFailed(From, To))
        Arcs.push_back({From, To});
  return Csr(G.numNodes(), Arcs);
}

/// Routes \p Src -> \p Dst in \p Net by star-route lifting: an optimal
/// star route whose every dimension expands through its emulation path
/// (Theorems 1-3). Requires supportsStarEmulation(Net).
inline GeneratorPath routeViaStarEmulation(const SuperCayleyGraph &Net,
                                           const Permutation &Src,
                                           const Permutation &Dst) {
  assert(supportsStarEmulation(Net) && "unsupported network kind");
  GeneratorPath Path;
  for (unsigned Dim : starRouteDimensions(Src, Dst)) {
    GeneratorPath Template = starDimensionPath(Net, Dim);
    for (GenIndex G : Template.hops())
      Path.append(G);
  }
  assert(Path.connects(Net, Src, Dst) && "lifted route is broken");
  return Path;
}

/// Routes \p Src -> \p Dst in \p Net, which must be a rotator graph, by
/// insertion-sorting the relative permutation.
inline GeneratorPath
routeInRotator([[maybe_unused]] const SuperCayleyGraph &Net,
               const Permutation &Src, const Permutation &Dst) {
  assert(Net.kind() == NetworkKind::Rotator && "network must be a rotator");
  GeneratorPath Path;
  Permutation Rel = Src.inverse().compose(Dst);
  for (unsigned Dim : rotatorWordForPermutation(Rel))
    Path.append(Dim - 2); // generators were added as I_2..I_k in order.
  assert(Path.connects(Net, Src, Dst) && "rotator route is broken");
  return Path;
}

/// The cycles of length >= 2 of \p P, each listed as the sequence of
/// symbols it moves, starting at its smallest symbol, cycles sorted by
/// their smallest symbol.
inline std::vector<std::vector<uint8_t>>
nontrivialCycles(const Permutation &P) {
  std::span<const uint8_t> Word = P.oneLine();
  std::vector<std::vector<uint8_t>> Cycles;
  std::bitset<256> Visited;
  for (unsigned Start = 0; Start != Word.size(); ++Start) {
    if (Visited[Start] || Word[Start] == Start)
      continue;
    std::vector<uint8_t> Cycle;
    for (unsigned Cur = Start; !Visited[Cur]; Cur = Word[Cur]) {
      Visited[Cur] = true;
      Cycle.push_back(static_cast<uint8_t>(Cur));
    }
    Cycles.push_back(std::move(Cycle));
  }
  return Cycles;
}

/// The number of symbols s with P[s] != s.
inline unsigned numDisplaced(const Permutation &P) {
  unsigned Count = 0;
  for (unsigned Pos = 0; Pos != P.size(); ++Pos)
    Count += P[Pos] != Pos;
  return Count;
}

/// Star distance d(P) = m + c - 2 * [P displaces position 1] from the
/// displaced count and the cycle list.
inline unsigned starDistanceReference(const Permutation &P) {
  unsigned Displaced = numDisplaced(P);
  if (Displaced == 0)
    return 0;
  unsigned Cycles = nontrivialCycles(P).size();
  return Displaced + Cycles - (P[0] != 0 ? 2 : 0);
}

/// The greedy star word for \p P: sort C = P^-1 to the identity by
/// sending the front symbol home, or, with the front home, opening the
/// first nontrivial cycle; each move builds a new Permutation.
inline std::vector<unsigned> starWordReference(const Permutation &P) {
  Permutation C = P.inverse();
  unsigned K = C.size();
  std::vector<unsigned> Dims;
  auto ApplyT = [&C](unsigned J) {
    std::vector<uint8_t> Word = C.oneLineVector();
    std::swap(Word[0], Word[J - 1]);
    C = Permutation::fromOneLine(std::move(Word));
  };
  while (true) {
    if (C[0] != 0) {
      unsigned J = unsigned(C[0]) + 1;
      Dims.push_back(J);
      ApplyT(J);
      continue;
    }
    unsigned Pos = 1;
    while (Pos != K && C[Pos] == Pos)
      ++Pos;
    if (Pos == K)
      return Dims;
    Dims.push_back(Pos + 1);
    ApplyT(Pos + 1);
  }
}

/// Upper bound on the length of lifted routes: slowdown * star diameter
/// (for reporting against measured diameters).
inline unsigned liftedRouteBound(const SuperCayleyGraph &Net) {
  // Star diameter is floor(3(k-1)/2) [1]; each star hop expands to at most
  // the SDC slowdown of the host.
  unsigned K = Net.numSymbols();
  unsigned StarDiameter = 3 * (K - 1) / 2;
  return analyzeSdcEmulation(Net).Slowdown * StarDiameter;
}

/// True if \p From -> \p To is an arc of \p G (linear scan of From's row).
inline bool hasArc(const Csr &G, NodeId From, NodeId To) {
  std::span<const NodeId> Row = G.neighbors(From);
  return std::find(Row.begin(), Row.end(), To) != Row.end();
}

/// True if every node of \p G has the same out-degree.
inline bool isRegular(const Csr &G) {
  for (NodeId Node = 1; Node < G.numNodes(); ++Node)
    if (G.neighbors(Node).size() != G.neighbors(0).size())
      return false;
  return true;
}

/// True if for every edge u->v of \p G the edge v->u is present.
inline bool isUndirected(const Csr &G) {
  for (NodeId From = 0; From != G.numNodes(); ++From)
    for (NodeId To : G.neighbors(From))
      if (!hasArc(G, To, From))
        return false;
  return true;
}

/// Number of nodes reachable from \p Source, the source included.
inline uint64_t bfsReachableCount(const Csr &G, NodeId Source) {
  std::vector<bool> Visited(G.numNodes(), false);
  std::vector<NodeId> Queue = {Source};
  Visited[Source] = true;
  for (size_t Head = 0; Head != Queue.size(); ++Head)
    for (NodeId Next : G.neighbors(Queue[Head]))
      if (!Visited[Next]) {
        Visited[Next] = true;
        Queue.push_back(Next);
      }
  return Queue.size();
}

/// True if every node of \p G is reachable from node 0.
inline bool isConnectedFromZero(const Csr &G) {
  return G.numNodes() == 0 || bfsReachableCount(G, 0) == G.numNodes();
}

/// Full distance rows per source from one bit-parallel batch
/// (UnreachableDistance where a lane never arrives); row i equals
/// bfs(G, Sources[i]).Distance.
inline std::vector<std::vector<uint32_t>>
msBfsDistances(const Csr &G, std::span<const NodeId> Sources) {
  std::vector<std::vector<uint32_t>> Rows(
      Sources.size(),
      std::vector<uint32_t>(G.numNodes(), UnreachableDistance));
  msBfsCore(G, Sources, [&Rows](NodeId Node, uint64_t NewMask, uint32_t Level) {
    do {
      Rows[unsigned(std::countr_zero(NewMask))][Node] = Level;
      NewMask &= NewMask - 1;
    } while (NewMask);
  });
  return Rows;
}

/// True if generator \p G keeps every node of \p Net inside its cluster
/// (nucleus links do; super links never do).
inline bool isIntraCluster(const ExplicitScg &Net, GenIndex G) {
  return Net.network().generators()[G].Kind == GeneratorKind::Nucleus;
}

/// The quotient graph of \p Net's clusters: an edge per ordered pair of
/// clusters joined by at least one super link.
inline Csr clusterGraph(const ExplicitScg &Net, const ClusterStructure &C) {
  std::set<std::pair<uint32_t, uint32_t>> Edges;
  for (NodeId U = 0; U != Net.numNodes(); ++U)
    for (GenIndex G = 0; G != Net.degree(); ++G)
      if (!isIntraCluster(Net, G))
        Edges.insert({C.clusterOf(U), C.clusterOf(Net.next(U, G))});
  std::vector<std::pair<NodeId, NodeId>> Arcs(Edges.begin(), Edges.end());
  return Csr(NodeId(C.numClusters()), Arcs);
}

/// Shortest-path distance by the bidirectional BAG search, or nullopt if
/// unreachable within \p MaxDepth.
inline std::optional<unsigned> bagDistance(const SuperCayleyGraph &Net,
                                           const Permutation &Src,
                                           const Permutation &Dst,
                                           unsigned MaxDepth = 0) {
  std::optional<GeneratorPath> Path = solveBag(Net, Src, Dst, MaxDepth);
  if (!Path)
    return std::nullopt;
  return Path->length();
}

/// +1 or -1, the sign of \p P: (-1)^(k - number of cycles).
inline int sign(const Permutation &P) {
  unsigned NumCycles = 0;
  std::bitset<256> Visited;
  for (unsigned Start = 0; Start != P.size(); ++Start) {
    if (Visited[Start])
      continue;
    ++NumCycles;
    for (unsigned Cur = Start; !Visited[Cur]; Cur = P[Cur])
      Visited[Cur] = true;
  }
  return (P.size() - NumCycles) % 2 == 0 ? 1 : -1;
}

/// The position of symbol \p Symbol in \p P (the inverse image).
inline unsigned positionOf(const Permutation &P, uint8_t Symbol) {
  unsigned Pos = 0;
  while (P[Pos] != Symbol)
    ++Pos;
  return Pos;
}

/// The Lehmer code (c_0, ..., c_{k-1}) of \p P: c_i counts the entries to
/// the right of position i that are smaller than P[i].
inline std::vector<uint8_t> lehmerCode(const Permutation &P) {
  std::vector<uint8_t> Code(P.size(), 0);
  for (unsigned I = 0; I != P.size(); ++I)
    for (unsigned J = I + 1; J != P.size(); ++J)
      Code[I] += P[J] < P[I];
  return Code;
}

/// The order of the group generated by \p Generators: the product of the
/// stabilizer chain's orbit sizes.
inline uint64_t
permutationGroupOrder(const std::vector<Permutation> &Generators) {
  uint64_t Order = 1;
  for (size_t Size : StabilizerChain(Generators).orbitSizes())
    Order *= Size;
  return Order;
}

/// Recomposes a star dimension from its parts: j1 * n + j0 + 2.
inline unsigned composeDimension(DimensionParts Parts, unsigned N) {
  assert(Parts.J0 < N && "ball slot out of range");
  return Parts.J1 * N + Parts.J0 + 2;
}

/// The generator applying the inverse action; a trailing prime on the name
/// marks the inverse.
inline Generator inverted(const Generator &G) {
  std::string Name = G.Name;
  if (!Name.empty() && Name.back() == '\'')
    Name.pop_back();
  else
    Name += '\'';
  return {std::move(Name), G.Sigma.inverse(), G.Kind};
}

/// True if \p G's action is its own inverse (one physical link).
inline bool isInvolution(const Generator &G) {
  return G.Sigma.compose(G.Sigma).isIdentity();
}

/// The super generator B_i that brings super-symbol \p I to the leftmost
/// box position (Theorem 4): S_i for swap-based networks and R^{-(i-1)}
/// for rotation-based ones.
inline Generator makeBringBoxSwap(unsigned K, unsigned N, unsigned I) {
  return makeSwap(K, N, I);
}
inline Generator makeBringBoxRotation(unsigned K, unsigned N, unsigned I) {
  assert(I >= 2 && "box 1 is already leftmost");
  return makeRotation(K, N, -static_cast<int>(I - 1));
}

/// The index of the generator named \p Name, if \p Gens has one.
inline std::optional<GenIndex> findByName(const GeneratorSet &Gens,
                                          const std::string &Name) {
  for (GenIndex I = 0; I != Gens.size(); ++I)
    if (Gens[I].Name == Name)
      return I;
  return std::nullopt;
}

/// Every node \p Path visits from \p Start, \p Start first.
inline std::vector<Permutation> trace(const GeneratorPath &Path,
                                      const SuperCayleyGraph &Net,
                                      const Permutation &Start) {
  std::vector<Permutation> Nodes = {Start};
  for (GenIndex G : Path.hops())
    Nodes.push_back(Net.neighbor(Nodes.back(), G));
  return Nodes;
}

/// Display name of a communication model ("all-port", ...).
inline std::string commModelName(CommModel Model) {
  switch (Model) {
  case CommModel::AllPort:
    return "all-port";
  case CommModel::SinglePort:
    return "single-port";
  case CommModel::SingleDimension:
    return "single-dimension";
  }
  return "?";
}

/// Display name of a workload kind ("uniform", "hotspot", ...).
inline std::string workloadKindName(WorkloadKind Kind) {
  switch (Kind) {
  case WorkloadKind::UniformRandom:
    return "uniform";
  case WorkloadKind::Hotspot:
    return "hotspot";
  case WorkloadKind::Transpose:
    return "transpose";
  case WorkloadKind::BitReversal:
    return "bit-reversal";
  case WorkloadKind::BurstyUniform:
    return "bursty";
  }
  return "?";
}

/// Every metric name simulateTrafficLoad publishes, in publication order.
inline std::vector<std::string> trafficMetricNames() {
  return {"traffic.offered",
          "traffic.delivered",
          "traffic.offered_rate",
          "traffic.delivered_rate",
          "traffic.mean_latency",
          "traffic.p50_latency",
          "traffic.p99_latency",
          "traffic.mean_queued",
          "traffic.max_queue_length",
          "traffic.setup.events",
          "traffic.setup.distinct_labels",
          "traffic.setup.route_hops",
          "traffic.setup.dedup_factor",
          "traffic.closedloop.max_queue",
          "traffic.closedloop.deferred_injections",
          "traffic.closedloop.deferred_steps"};
}

} // namespace scg::oracle

#endif // SCG_TESTS_ORACLES_H
