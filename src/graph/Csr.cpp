//===- graph/Csr.cpp - Compressed sparse row adjacency -------------------===//

#include "graph/Csr.h"

#include <cassert>

using namespace scg;

Csr::Csr(const Graph &G) {
  Offsets.resize(uint64_t(G.numNodes()) + 1);
  Adjacency.resize(G.numDirectedEdges());
  uint64_t Cursor = 0;
  for (NodeId Node = 0; Node != G.numNodes(); ++Node) {
    Offsets[Node] = Cursor;
    for (NodeId Next : G.neighbors(Node))
      Adjacency[Cursor++] = Next;
  }
  Offsets[G.numNodes()] = Cursor;
  assert(Cursor == G.numDirectedEdges() && "edge count mismatch");
}

Csr::Csr(NodeId NumNodes, unsigned Degree, std::vector<NodeId> Flat)
    : Adjacency(std::move(Flat)) {
  assert(Adjacency.size() == uint64_t(NumNodes) * Degree &&
         "flat table size must be NumNodes * Degree");
  Offsets.resize(uint64_t(NumNodes) + 1);
  for (uint64_t Node = 0; Node <= NumNodes; ++Node)
    Offsets[Node] = Node * Degree;
}

Csr::Csr(std::vector<uint64_t> Offsets, std::vector<NodeId> Adjacency)
    : Offsets(std::move(Offsets)), Adjacency(std::move(Adjacency)) {
  assert(!this->Offsets.empty() && this->Offsets.front() == 0 &&
         this->Offsets.back() == this->Adjacency.size() &&
         "offsets must span the adjacency array");
}

Csr Csr::transpose() const {
  const NodeId N = numNodes();
  Csr T;
  // Counting sort: in-degree histogram, prefix sums, then one scatter
  // pass in ascending source order, so each reverse row lists its
  // in-neighbors ascending -- a deterministic order independent of the
  // forward row order.
  T.Offsets.assign(uint64_t(N) + 1, 0);
  for (NodeId To : Adjacency) {
    assert(To < N && "neighbor id out of range");
    ++T.Offsets[uint64_t(To) + 1];
  }
  for (uint64_t Node = 0; Node != N; ++Node)
    T.Offsets[Node + 1] += T.Offsets[Node];
  T.Adjacency.resize(Adjacency.size());
  std::vector<uint64_t> Cursor(T.Offsets.begin(), T.Offsets.end() - 1);
  for (NodeId From = 0; From != N; ++From)
    for (NodeId To : neighbors(From))
      T.Adjacency[Cursor[To]++] = From;
  return T;
}
