//===- graph/Metrics.h - Diameter and distance statistics ------*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Graph-level metrics: connectivity, diameter, average internodal distance.
/// For vertex-transitive graphs (every Cayley graph is), the eccentricity
/// and distance distribution of a single node are those of every node, so
/// one BFS suffices. The general all-pairs form, for the guest topologies
/// (meshes, trees -- not vertex-transitive) and for cross-checking the
/// transitivity shortcut, is msAllPairsStats on the bit-parallel
/// multi-source BFS engine (graph/MsBfs.h): 64 sources per batch, batches
/// spread across the ThreadPool -- which is what makes exact sweeps at
/// k = 9 (362,880 nodes) a minutes-scale run. The scalar
/// one-BFS-per-source engine survives as scalarAllPairsStats, the
/// reference the bit-parallel results are pinned against.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_GRAPH_METRICS_H
#define SCG_GRAPH_METRICS_H

#include "graph/Csr.h"

namespace scg {

/// Summary distance statistics of a graph.
struct DistanceStats {
  bool Connected = false;
  uint32_t Diameter = 0;
  double AverageDistance = 0.0; ///< Over ordered pairs of distinct nodes.
};

/// The scalar reference engine: one BFS per source, parallel over source
/// nodes. Kept as the differential baseline for the bit-parallel engine
/// (tests/MsBfsTest.cpp, bench_network_properties); prefer msAllPairsStats
/// everywhere else.
DistanceStats scalarAllPairsStats(const Csr &G);

/// Single-BFS statistics from \p Representative, valid for vertex-transitive
/// graphs; \p Representative defaults to node 0.
DistanceStats vertexTransitiveStats(const Csr &G, NodeId Representative = 0);

} // namespace scg

#endif // SCG_GRAPH_METRICS_H
