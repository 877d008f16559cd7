//===- networks/Clusters.h - Modular (cluster) structure -------*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The modular structure behind "a new class of interconnection networks
/// for the modular construction of parallel computers" (Section 6): in
/// every l-level super Cayley graph, the nucleus generators only permute
/// the leftmost n+1 symbols, so the nodes sharing the symbols at
/// positions n+2..k form a cluster -- a copy of the (n+1)-symbol nucleus
/// network ((n+1)-star for MS/RS/complete-RS, (n+1)-IS for the IS
/// classes). Super generators connect clusters. This module labels nodes
/// with cluster ids.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_NETWORKS_CLUSTERS_H
#define SCG_NETWORKS_CLUSTERS_H

#include "networks/Explicit.h"

namespace scg {

/// Cluster labeling of an explicit super Cayley graph.
class ClusterStructure {
public:
  /// Builds the labeling for \p Net, which must be a multi-level class
  /// (numBoxes >= 2).
  explicit ClusterStructure(const ExplicitScg &Net);

  /// Number of clusters: k! / (n+1)!.
  uint64_t numClusters() const { return Count; }

  /// Nodes per cluster: (n+1)!.
  uint64_t clusterSize() const { return Size; }

  /// The cluster id of node \p U (dense, 0-based).
  uint32_t clusterOf(NodeId U) const { return Labels[U]; }

private:
  std::vector<uint32_t> Labels;
  uint64_t Count = 0;
  uint64_t Size = 0;
};

} // namespace scg

#endif // SCG_NETWORKS_CLUSTERS_H
