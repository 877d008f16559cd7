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
/// one BFS suffices: vertexTransitiveStats is a one-lane run of the
/// bit-parallel engine (graph/MsBfs.h). The general all-pairs form, for the
/// guest topologies (meshes, trees -- not vertex-transitive) and for
/// cross-checking the transitivity shortcut, is msAllPairsStats on the same
/// engine: 64 sources per batch, batches spread across the ThreadPool --
/// which is what makes exact sweeps at k = 9 (362,880 nodes) a
/// minutes-scale run. Both are pinned against the scalar one-BFS-per-source
/// oracles of tests/Oracles.h.
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

/// Single-BFS statistics from \p Representative, valid for vertex-transitive
/// graphs; \p Representative defaults to node 0. On a disconnected graph,
/// Connected is false and Diameter / AverageDistance describe the part
/// reached (its eccentricity, and its distance sum over N - 1). Throws
/// std::invalid_argument when \p Representative is not a node of \p G.
DistanceStats vertexTransitiveStats(const Csr &G, NodeId Representative = 0);

} // namespace scg

#endif // SCG_GRAPH_METRICS_H
