//===- graph/Bfs.cpp - Breadth-first search over graphs ------------------===//

#include "graph/Bfs.h"

#include <cassert>

using namespace scg;

BfsResult scg::bfs(const Csr &G, NodeId Source) {
  // Concrete functor: the adjacency-span walk inlines into the core loop.
  return bfsCore(G.numNodes(), Source, [&G](NodeId Node, auto &&Sink) {
    for (NodeId Next : G.neighbors(Node))
      Sink(Next);
  });
}
