//===- graph/Csr.h - Compressed sparse row adjacency -----------*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compressed-sparse-row adjacency: one flat neighbor array plus an
/// offsets array, the layout the bit-parallel multi-source BFS engine
/// (graph/MsBfs.h) streams over. A Csr is buildable from any Graph and --
/// via ExplicitScg::toCsr() -- directly from a super Cayley graph's
/// Next table, whose row-major Count x degree layout *is* already CSR
/// with uniform row length.
///
/// The container is immutable after construction: the distance sweeps
/// hand one Csr to many concurrent BFS batches, so there must be nothing
/// to mutate.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_GRAPH_CSR_H
#define SCG_GRAPH_CSR_H

#include "graph/Graph.h"

#include <span>
#include <vector>

namespace scg {

/// Immutable CSR adjacency. Neighbor order within a row matches the
/// source container (Graph insertion order / Next-table generator order);
/// the distance engines are order-insensitive, so the two builds are
/// interchangeable.
class Csr {
public:
  /// Flattens \p G (O(V + E), one pass).
  explicit Csr(const Graph &G);

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

  std::vector<uint64_t> Offsets;  ///< size numNodes() + 1, Offsets[0] == 0.
  std::vector<NodeId> Adjacency;  ///< all rows back to back.
};

} // namespace scg

#endif // SCG_GRAPH_CSR_H
