//===- comm/BroadcastTree.h - Translation-invariant trees ------*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A breadth-first spanning tree of a super Cayley graph rooted at the
/// identity, stored in relative form: for every relative rank w (the rank
/// of s^-1 u for source s, node u), the child links to forward on. Vertex
/// symmetry makes one tree serve every source -- the same principle behind
/// the spanning-tree broadcast algorithms the paper emulates ([8], [15]) --
/// which is what lets the MNB simulation carry only (relative rank) tokens.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_COMM_BROADCASTTREE_H
#define SCG_COMM_BROADCASTTREE_H

#include "networks/Explicit.h"

namespace scg {

/// BFS spanning tree in relative coordinates.
class BroadcastTree {
public:
  /// Builds the BFS tree of \p Net from the identity node. Different
  /// \p Rotation values bias the per-node generator priority differently,
  /// yielding structurally distinct trees whose edge-label distributions
  /// complement each other -- the ingredient of the multi-tree MNB of [8]
  /// (see simulateMnbStriped).
  explicit BroadcastTree(const ExplicitScg &Net, unsigned Rotation = 0);

  /// Depth of relative node \p W.
  uint32_t depth(NodeId W) const { return Depth[W]; }

  /// Tree height (= eccentricity of the root = network diameter for
  /// vertex-transitive graphs).
  uint32_t height() const { return Height; }

  /// Links on which a node holding a token at relative rank \p W forwards.
  const std::vector<GenIndex> &children(NodeId W) const {
    return Children[W];
  }

  /// Total tree edges (numNodes - 1 when connected).
  uint64_t numEdges() const { return EdgeCount; }

private:
  std::vector<uint32_t> Depth;
  std::vector<std::vector<GenIndex>> Children;
  uint32_t Height = 0;
  uint64_t EdgeCount = 0;
};

} // namespace scg

#endif // SCG_COMM_BROADCASTTREE_H
