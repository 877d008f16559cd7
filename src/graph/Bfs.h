//===- graph/Bfs.h - Breadth-first search over graphs ----------*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Single-source BFS over any graph whose out-neighbors a functor can
/// enumerate over dense node ids (typically Lehmer ranks).
///
/// The engine is bfsCore, a neighbor-functor template: the enumeration
/// callback and the visit sink are inlined at the call site (no
/// std::function dispatch per edge), and the FIFO is a flat vector with a
/// head cursor -- every node is enqueued at most once, so the queue never
/// wraps and one reservation serves the whole traversal. bfs() over an
/// explicit Graph and bfsExplicit() over ExplicitScg's Next table are thin
/// adapters over it.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_GRAPH_BFS_H
#define SCG_GRAPH_BFS_H

#include "graph/Graph.h"

#include <limits>

namespace scg {

/// Distance value for unreachable nodes.
constexpr uint32_t UnreachableDistance =
    std::numeric_limits<uint32_t>::max();

/// Result of a single-source BFS.
struct BfsResult {
  /// Distance from the source per node; UnreachableDistance if unreachable.
  std::vector<uint32_t> Distance;
  /// Parent node per node (source's parent is itself); undefined when
  /// unreachable.
  std::vector<NodeId> Parent;
  /// Largest finite distance found.
  uint32_t Eccentricity = 0;
  /// Number of reachable nodes (including the source).
  uint64_t NumReached = 0;
  /// Sum of finite distances (for average-distance computations).
  uint64_t DistanceSum = 0;
};

/// BFS from \p Source over an implicit graph on \p NumNodes nodes whose
/// adjacency is enumerated by \p Neighbors(Node, Sink): any callable that
/// invokes Sink(NeighborId) for each out-neighbor of Node. Both the
/// enumerator and the sink are statically typed, so the whole visit loop
/// inlines; there is no per-edge virtual or std::function dispatch.
template <typename NeighborForEach>
BfsResult bfsCore(uint64_t NumNodes, NodeId Source,
                  NeighborForEach &&Neighbors) {
  assert(Source < NumNodes && "source out of range");
  BfsResult Result;
  Result.Distance.assign(NumNodes, UnreachableDistance);
  Result.Parent.assign(NumNodes, 0);
  Result.Distance[Source] = 0;
  Result.Parent[Source] = Source;
  Result.NumReached = 1;

  // Flat FIFO: nodes are enqueued exactly once, so a vector with a head
  // cursor is a ring that never wraps.
  std::vector<NodeId> Queue;
  Queue.reserve(NumNodes);
  Queue.push_back(Source);
  for (size_t Head = 0; Head != Queue.size(); ++Head) {
    NodeId Node = Queue[Head];
    uint32_t NextDist = Result.Distance[Node] + 1;
    Neighbors(Node, [&](NodeId Next) {
      assert(Next < NumNodes && "neighbor out of range");
      if (Result.Distance[Next] != UnreachableDistance)
        return;
      Result.Distance[Next] = NextDist;
      Result.Parent[Next] = Node;
      Result.Eccentricity = NextDist;
      Result.DistanceSum += NextDist;
      ++Result.NumReached;
      Queue.push_back(Next);
    });
  }
  return Result;
}

/// BFS from \p Source over the explicit graph \p G.
BfsResult bfs(const Graph &G, NodeId Source);

} // namespace scg

#endif // SCG_GRAPH_BFS_H
