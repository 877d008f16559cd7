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
///    consume (the library builds the surviving Csr directly).
///
//===----------------------------------------------------------------------===//

#ifndef SCG_TESTS_ORACLES_H
#define SCG_TESTS_ORACLES_H

#include "graph/Faults.h"
#include "graph/MsBfs.h"

#include <bit>
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

} // namespace scg::oracle

#endif // SCG_TESTS_ORACLES_H
