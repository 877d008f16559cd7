//===- graph/Containers.h - Node-disjoint path containers ------*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Containers: sets of internally node-disjoint parallel paths between a
/// node pair. By Menger's theorem the maximum container size equals the
/// local (vertex) connectivity, and for the maximally fault-tolerant
/// networks of the paper -- Cayley graphs of connectivity degree-many --
/// a container between any pair has degree-many paths, so any
/// fewer-than-degree faults leave at least one path intact. That is the
/// combinatorial backbone of the fault-tolerant router
/// (routing/FaultRouter.h) and the reliability campaigns
/// (routing/FaultCampaign.h); the literature grounding is Li & Xu's super
/// spanning connectivity of arrangement graphs and Knill's Cayley coset
/// connectivity notes (PAPERS.md).
///
/// This module is the explicit-graph workhorse: a unit-vertex-capacity
/// max-flow (node splitting + BFS augmentation, i.e. Even-Tarjan style)
/// that produces a maximum container between arbitrary NodeId pairs on
/// any explicit Csr graph, directed or undirected. It is exact on every
/// family, which makes it both the universal fallback and the
/// cross-validation oracle for the generator-based star construction in
/// routing/FaultRouter.h that needs no graph at all.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_GRAPH_CONTAINERS_H
#define SCG_GRAPH_CONTAINERS_H

#include "graph/Csr.h"

#include <span>
#include <vector>

namespace scg {

/// Returns a maximum set of internally node-disjoint \p Src -> \p Dst
/// paths (a container): unit capacities on nodes (via in/out splitting)
/// and arcs, shortest-augmenting-path max flow. Each returned path is a
/// simple node sequence starting at \p Src and ending at \p Dst; paths
/// share no node except the endpoints. \p MaxPaths caps the container
/// size (0 = no cap, i.e. the full local connectivity). Deterministic:
/// augmentation follows adjacency order, and paths are returned sorted by
/// (length, discovery order) so Paths[0] is a shortest Src -> Dst path.
/// Requires Src != Dst; correct on directed graphs (arc capacities bound
/// each direction independently).
std::vector<std::vector<NodeId>> nodeDisjointPaths(const Csr &G,
                                                   NodeId Src, NodeId Dst,
                                                   unsigned MaxPaths = 0);

/// The local vertex connectivity kappa(Src, Dst): the size of a maximum
/// container, equivalently (Menger) the minimum number of internal nodes
/// whose removal separates \p Dst from \p Src.
unsigned localConnectivity(const Csr &G, NodeId Src, NodeId Dst);

/// True when \p Paths form a container: every path runs between the same
/// two endpoints, and no node other than those endpoints appears in more
/// than one path (or twice in one). Vacuously true for an empty set.
bool internallyNodeDisjoint(std::span<const std::vector<NodeId>> Paths);

/// True when \p Path is a simple walk in \p G: at least two nodes, every
/// consecutive pair an arc of \p G, and no node repeated.
bool isSimplePath(const Csr &G, std::span<const NodeId> Path);

} // namespace scg

#endif // SCG_GRAPH_CONTAINERS_H
