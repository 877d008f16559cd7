//===- networks/Classic.cpp - Classic guest topologies -------------------===//

#include "networks/Classic.h"

#include <cassert>
#include <stdexcept>
#include <string>

using namespace scg;

namespace {

/// Node-count limit shared by the builders: ids and arc counts stay well
/// inside NodeId and size_t, and the check runs before anything is
/// allocated.
constexpr uint64_t MaxClassicNodes = uint64_t(1) << 31;

using Arcs = std::vector<std::pair<NodeId, NodeId>>;

/// Appends both directions of the edge {\p A, \p B}.
void addUndirectedEdge(Arcs &Out, NodeId A, NodeId B) {
  Out.push_back({A, B});
  Out.push_back({B, A});
}

} // namespace

Csr scg::hypercube(unsigned Dim) {
  if (Dim >= 31)
    throw std::invalid_argument("hypercube: dimension " + std::to_string(Dim) +
                                " is too large to materialize");
  NodeId N = NodeId(1) << Dim;
  Arcs A;
  A.reserve(uint64_t(N) * Dim);
  for (NodeId U = 0; U != N; ++U)
    for (unsigned Bit = 0; Bit != Dim; ++Bit) {
      NodeId V = U ^ (NodeId(1) << Bit);
      if (U < V)
        addUndirectedEdge(A, U, V);
    }
  return Csr(N, A);
}

Csr scg::mesh2D(unsigned Rows, unsigned Cols) {
  if (Rows == 0 || Cols == 0)
    throw std::invalid_argument("mesh2D: extents must be positive");
  if (uint64_t(Rows) * Cols > MaxClassicNodes)
    throw std::invalid_argument("mesh2D: too many nodes to materialize");
  Arcs A;
  A.reserve(2 * (uint64_t(Rows) * (Cols - 1) + uint64_t(Rows - 1) * Cols));
  for (unsigned R = 0; R != Rows; ++R)
    for (unsigned C = 0; C != Cols; ++C) {
      NodeId U = R * Cols + C;
      if (C + 1 != Cols)
        addUndirectedEdge(A, U, U + 1);
      if (R + 1 != Rows)
        addUndirectedEdge(A, U, U + Cols);
    }
  return Csr(NodeId(uint64_t(Rows) * Cols), A);
}

Csr scg::mixedRadixMesh(const std::vector<unsigned> &Dims) {
  uint64_t N = 1;
  for (unsigned D : Dims) {
    if (D == 0)
      throw std::invalid_argument("mixedRadixMesh: extents must be positive");
    N *= D; // N <= 2^31 before this product, so it cannot wrap.
    if (N > MaxClassicNodes)
      throw std::invalid_argument(
          "mixedRadixMesh: too many nodes to materialize");
  }
  Arcs A;
  for (uint64_t U = 0; U != N; ++U) {
    std::vector<unsigned> Coords = mixedRadixCoords(U, Dims);
    for (size_t Axis = 0; Axis != Dims.size(); ++Axis) {
      if (Coords[Axis] + 1 == Dims[Axis])
        continue;
      ++Coords[Axis];
      addUndirectedEdge(A, static_cast<NodeId>(U),
                        static_cast<NodeId>(mixedRadixId(Coords, Dims)));
      --Coords[Axis];
    }
  }
  return Csr(static_cast<NodeId>(N), A);
}

std::vector<unsigned>
scg::mixedRadixCoords(uint64_t Id, const std::vector<unsigned> &Dims) {
  std::vector<unsigned> Coords(Dims.size(), 0);
  for (size_t Axis = Dims.size(); Axis != 0; --Axis) {
    Coords[Axis - 1] = static_cast<unsigned>(Id % Dims[Axis - 1]);
    Id /= Dims[Axis - 1];
  }
  assert(Id == 0 && "id out of range for the given extents");
  return Coords;
}

uint64_t scg::mixedRadixId(const std::vector<unsigned> &Coords,
                           const std::vector<unsigned> &Dims) {
  assert(Coords.size() == Dims.size() && "coordinate arity mismatch");
  uint64_t Id = 0;
  for (size_t Axis = 0; Axis != Dims.size(); ++Axis) {
    assert(Coords[Axis] < Dims[Axis] && "coordinate out of range");
    Id = Id * Dims[Axis] + Coords[Axis];
  }
  return Id;
}

Csr scg::completeBinaryTree(unsigned Height) {
  if (Height >= 30)
    throw std::invalid_argument("completeBinaryTree: height " +
                                std::to_string(Height) +
                                " is too large to materialize");
  NodeId N = (NodeId(1) << (Height + 1)) - 1;
  Arcs A;
  A.reserve(2 * uint64_t(N - 1));
  for (NodeId V = 1; V != N; ++V)
    addUndirectedEdge(A, (V - 1) / 2, V);
  return Csr(N, A);
}
