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
///  * oracle::applyFaults -- the surviving network as an adjacency-list
///    Graph, which the scalar bfs() and the Csr(const Graph &) flatten
///    consume (the library builds the surviving Csr directly);
///  * oracle::routeViaStarEmulation and oracle::routeInRotator -- scalar
///    per-pair routes (Theorems 1-3 star-route lifting, insertion-sort
///    rotator routing), each self-checked with Path.connects; the library
///    serves both through QueryEngine, which routes the relative label
///    with per-family precomputed generator words;
///  * oracle::liftedRouteBound -- slowdown * star diameter, the bound the
///    lifted routes are held to.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_TESTS_ORACLES_H
#define SCG_TESTS_ORACLES_H

#include "emulation/SdcEmulation.h"
#include "graph/Faults.h"
#include "graph/MsBfs.h"
#include "routing/RotatorRouter.h"
#include "routing/StarRouter.h"

#include <bit>
#include <cassert>
#include <span>
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

/// Returns \p G with every failed link removed (failed nodes keep their id
/// but lose all links).
inline Graph applyFaults(const Graph &G, const FaultSet &Faults) {
  Graph Out(G.numNodes());
  for (NodeId From = 0; From != G.numNodes(); ++From)
    for (NodeId To : G.neighbors(From))
      if (!Faults.linkFailed(From, To))
        Out.addEdge(From, To);
  return Out;
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

/// Upper bound on the length of lifted routes: slowdown * star diameter
/// (for reporting against measured diameters).
inline unsigned liftedRouteBound(const SuperCayleyGraph &Net) {
  // Star diameter is floor(3(k-1)/2) [1]; each star hop expands to at most
  // the SDC slowdown of the host.
  unsigned K = Net.numSymbols();
  unsigned StarDiameter = 3 * (K - 1) / 2;
  return analyzeSdcEmulation(Net).Slowdown * StarDiameter;
}

} // namespace scg::oracle

#endif // SCG_TESTS_ORACLES_H
