//===- graph/Csr.h - Compressed sparse row adjacency -----------*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The explicit graph: compressed-sparse-row adjacency, one flat neighbor
/// array plus an offsets array, with dense node ids. It holds the
/// materialized super Cayley graphs (node id = Lehmer rank of the label,
/// via ExplicitScg::toCsr(), whose row-major Count x degree Next table
/// *is* already CSR with uniform row length), the classic guest
/// topologies of Section 5 (trees, meshes, hypercubes, built from arc
/// lists), and the surviving network of a fault scenario. It is the
/// layout the bit-parallel multi-source BFS engine (graph/MsBfs.h)
/// streams over. Undirected graphs store both directions of every edge.
///
/// The container is immutable after construction: the distance sweeps
/// hand one Csr to many concurrent BFS batches, so there must be nothing
/// to mutate.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_GRAPH_CSR_H
#define SCG_GRAPH_CSR_H

#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace scg {

/// Dense node identifier.
using NodeId = uint32_t;

/// Immutable CSR adjacency. Neighbor order within a row is the order the
/// builder supplied (arc-list order / Next-table generator order).
class Csr {
public:
  /// Builds the graph on \p NumNodes nodes whose arcs are \p Arcs, each a
  /// (From, To) pair. A stable counting sort by source, O(V + E): each row
  /// lists its arcs in input order. Throws std::invalid_argument, in every
  /// build, on an endpoint >= \p NumNodes or a self loop.
  Csr(NodeId NumNodes, std::span<const std::pair<NodeId, NodeId>> Arcs);

  /// Adopts a uniform-degree flat table: node V's neighbors are
  /// \p Flat[V * Degree .. (V + 1) * Degree). This is the ExplicitScg
  /// Next-table layout; the vector is moved, not copied, when the caller
  /// passes an rvalue.
  Csr(NodeId NumNodes, unsigned Degree, std::vector<NodeId> Flat);

  /// Adopts prebuilt rows: node V's neighbors are \p Adjacency[\p
  /// Offsets[V] .. \p Offsets[V + 1]), with Offsets nondecreasing from 0 to
  /// Adjacency.size(). For builders that filter arcs while flattening.
  Csr(std::vector<uint64_t> Offsets, std::vector<NodeId> Adjacency);

  NodeId numNodes() const { return NodeId(Offsets.size() - 1); }
  uint64_t numEdges() const { return Adjacency.size(); }

  std::span<const NodeId> neighbors(NodeId Node) const {
    assert(Node < numNodes() && "node id out of range");
    return {Adjacency.data() + Offsets[Node],
            Adjacency.data() + Offsets[Node + 1]};
  }

  /// The reverse graph: T.neighbors(V) enumerates the in-neighbors of V,
  /// in ascending source-node order (counting sort, O(V + E),
  /// deterministic). For the undirected families the transpose equals the
  /// original up to row order; on directed graphs (rotator networks) it is
  /// the true reverse.
  Csr transpose() const;

  /// Raw row storage for hot engine loops that hoist the per-row
  /// assert/span construction out of their inner loops: node V's row is
  /// adjacencyData()[offsetsData()[V] .. offsetsData()[V + 1]). Prefer
  /// neighbors() everywhere a traversal is not measurably hot.
  const NodeId *adjacencyData() const { return Adjacency.data(); }
  const uint64_t *offsetsData() const { return Offsets.data(); }

private:
  Csr() = default; ///< for transpose(), which fills the arrays itself.

  /// Fills both arrays from \p NumArcs arcs that \p ForEachArc enumerates
  /// twice, calling its sink with (row, neighbor) in the order each row
  /// should list them: a stable counting sort by row.
  template <typename ForEachArcT>
  void countingSort(NodeId NumNodes, uint64_t NumArcs,
                    const ForEachArcT &ForEachArc);

  std::vector<uint64_t> Offsets;  ///< size numNodes() + 1, Offsets[0] == 0.
  std::vector<NodeId> Adjacency;  ///< all rows back to back.
};

/// The adjacency-list graph's old name, for the benchmark harness only
/// (perfbench/src/Graph.cpp:242 declares `const Graph`). The benchmark
/// change of ROADMAP item 1 moves that line to Csr and deletes this alias.
using Graph = Csr;

} // namespace scg

#endif // SCG_GRAPH_CSR_H
