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
/// one BFS suffices; the general all-pairs form is provided for the guest
/// topologies (meshes, trees -- not vertex-transitive) and for
/// cross-checking the transitivity shortcut in tests and benches.
///
/// allPairsStats runs on the bit-parallel multi-source BFS engine
/// (graph/MsBfs.h): 64 sources per batch over CSR adjacency, batches
/// spread across the ThreadPool -- which is what makes exact sweeps at
/// k = 9 (362,880 nodes) a minutes-scale run. The scalar
/// one-BFS-per-source engine survives as scalarAllPairsStats, the
/// reference the bit-parallel results are pinned against.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_GRAPH_METRICS_H
#define SCG_GRAPH_METRICS_H

#include "graph/Graph.h"

namespace scg {

/// Summary distance statistics of a graph.
struct DistanceStats {
  bool Connected = false;
  uint32_t Diameter = 0;
  double AverageDistance = 0.0; ///< Over ordered pairs of distinct nodes.
};

/// All-pairs statistics via bit-parallel multi-source BFS (64 sources per
/// batch), parallel over batches on the global ThreadPool (SCG_THREADS=1
/// forces serial). Results are byte-identical at every thread count and
/// to scalarAllPairsStats. For a disconnected graph, returns
/// Connected=false with zeroed Diameter/AverageDistance.
DistanceStats allPairsStats(const Graph &G);

/// The scalar reference engine: one BFS per source, parallel over source
/// nodes. Kept as the differential baseline for the bit-parallel engine
/// (tests/MsBfsTest.cpp, bench_network_properties); prefer allPairsStats
/// everywhere else.
DistanceStats scalarAllPairsStats(const Graph &G);

/// Single-BFS statistics from \p Representative, valid for vertex-transitive
/// graphs; \p Representative defaults to node 0.
DistanceStats vertexTransitiveStats(const Graph &G, NodeId Representative = 0);

} // namespace scg

#endif // SCG_GRAPH_METRICS_H
