//===- graph/Graph.h - Explicit directed graph container -------*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compact explicit directed graph with dense node ids. Used for the
/// materialized form of small super Cayley graphs (node id = Lehmer rank of
/// the label) and for the classic guest topologies (trees, meshes,
/// hypercubes) of Section 5.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_GRAPH_GRAPH_H
#define SCG_GRAPH_GRAPH_H

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

namespace scg {

/// Dense node identifier.
using NodeId = uint32_t;

/// A directed graph in CSR-buildable adjacency-list form. Undirected graphs
/// are represented by storing both directions of every edge.
class Graph {
public:
  /// Creates a graph with \p NumNodes nodes and no edges.
  explicit Graph(NodeId NumNodes) : Adjacency(NumNodes) {}

  NodeId numNodes() const { return Adjacency.size(); }

  /// Total number of directed edges.
  uint64_t numDirectedEdges() const { return EdgeCount; }

  /// Adds the directed edge \p From -> \p To.
  void addEdge(NodeId From, NodeId To) {
    assert(From < numNodes() && To < numNodes() && "node id out of range");
    assert(From != To && "self loops are not allowed");
    Adjacency[From].push_back(To);
    ++EdgeCount;
  }

  /// Adds both directions of the edge {\p A, \p B}.
  void addUndirectedEdge(NodeId A, NodeId B) {
    addEdge(A, B);
    addEdge(B, A);
  }

  /// Out-neighbors of \p Node.
  std::span<const NodeId> neighbors(NodeId Node) const {
    assert(Node < numNodes() && "node id out of range");
    return Adjacency[Node];
  }

  unsigned outDegree(NodeId Node) const { return neighbors(Node).size(); }

  /// True if \p From -> \p To is an edge (linear scan of From's list).
  bool hasEdge(NodeId From, NodeId To) const;

private:
  std::vector<std::vector<NodeId>> Adjacency;
  uint64_t EdgeCount = 0;
};

} // namespace scg

#endif // SCG_GRAPH_GRAPH_H
