//===- graph/Bfs.cpp - Breadth-first search over graphs ------------------===//

#include "graph/Bfs.h"

#include <cassert>

using namespace scg;

BfsResult scg::bfs(const Graph &G, NodeId Source) {
  // Concrete functor: the adjacency-span walk inlines into the core loop.
  return bfsCore(G.numNodes(), Source, [&G](NodeId Node, auto &&Sink) {
    for (NodeId Next : G.neighbors(Node))
      Sink(Next);
  });
}

uint64_t scg::bfsReachableCount(const Graph &G, NodeId Source) {
  const uint64_t NumNodes = G.numNodes();
  assert(Source < NumNodes && "source out of range");
  std::vector<bool> Visited(NumNodes, false);
  Visited[Source] = true;
  uint64_t Reached = 1;
  std::vector<NodeId> Queue;
  Queue.reserve(NumNodes);
  Queue.push_back(Source);
  for (size_t Head = 0; Head != Queue.size(); ++Head) {
    for (NodeId Next : G.neighbors(Queue[Head])) {
      if (Visited[Next])
        continue;
      Visited[Next] = true;
      if (++Reached == NumNodes)
        return Reached; // everything reached; the rest of the walk is moot.
      Queue.push_back(Next);
    }
  }
  return Reached;
}
