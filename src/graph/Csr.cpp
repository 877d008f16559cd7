//===- graph/Csr.cpp - Compressed sparse row adjacency -------------------===//

#include "graph/Csr.h"

#include <cassert>
#include <stdexcept>

using namespace scg;

template <typename ForEachArcT>
void Csr::countingSort(NodeId NumNodes, uint64_t NumArcs,
                       const ForEachArcT &ForEachArc) {
  // Row-length histogram, prefix sums, then one scatter pass in
  // enumeration order, so each row keeps its arcs' relative order.
  Offsets.assign(uint64_t(NumNodes) + 1, 0);
  ForEachArc([this](NodeId Row, NodeId) { ++Offsets[uint64_t(Row) + 1]; });
  for (uint64_t Node = 0; Node != NumNodes; ++Node)
    Offsets[Node + 1] += Offsets[Node];
  Adjacency.resize(NumArcs);
  std::vector<uint64_t> Cursor(Offsets.begin(), Offsets.end() - 1);
  ForEachArc([this, &Cursor](NodeId Row, NodeId Neighbor) {
    Adjacency[Cursor[Row]++] = Neighbor;
  });
}

Csr::Csr(NodeId NumNodes, std::span<const std::pair<NodeId, NodeId>> Arcs) {
  for (auto [From, To] : Arcs) {
    if (From >= NumNodes || To >= NumNodes)
      throw std::invalid_argument("Csr: arc endpoint out of range");
    if (From == To)
      throw std::invalid_argument("Csr: self loops are not allowed");
  }
  countingSort(NumNodes, Arcs.size(), [Arcs](auto &&Sink) {
    for (auto [From, To] : Arcs)
      Sink(From, To);
  });
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
  // Sources are enumerated ascending, so each reverse row lists its
  // in-neighbors ascending -- a deterministic order independent of the
  // forward row order.
  Csr T;
  T.countingSort(numNodes(), numEdges(), [this](auto &&Sink) {
    for (NodeId From = 0; From != numNodes(); ++From)
      for (NodeId To : neighbors(From)) {
        assert(To < numNodes() && "neighbor id out of range");
        Sink(To, From);
      }
  });
  return T;
}
