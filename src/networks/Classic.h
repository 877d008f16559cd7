//===- networks/Classic.h - Classic guest topologies -----------*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The classic topologies Section 5 embeds into super Cayley graphs:
/// hypercubes, 2-D meshes, mixed-radix (2x3x...xk) meshes, and complete
/// binary trees. Each builder returns an explicit undirected Csr with a
/// documented node-id convention so the embedding constructions can compute
/// coordinates from ids without extra lookup tables. Each throws
/// std::invalid_argument, before allocating, on a zero extent or on more
/// than 2^31 nodes (hypercube Dim >= 31, completeBinaryTree Height >= 30).
///
//===----------------------------------------------------------------------===//

#ifndef SCG_NETWORKS_CLASSIC_H
#define SCG_NETWORKS_CLASSIC_H

#include "graph/Csr.h"

#include <vector>

namespace scg {

/// d-dimensional hypercube; node id = bit vector, neighbors differ in one
/// bit. 2^d nodes.
Csr hypercube(unsigned Dim);

/// m1 x m2 mesh; node id = Row * Cols + Col, 4-neighbor grid (no wrap).
Csr mesh2D(unsigned Rows, unsigned Cols);

/// Mixed-radix mesh with extents Dims[0] x Dims[1] x ...; node id is the
/// mixed-radix number with Dims[0] the most significant extent; neighbors
/// differ by +-1 in exactly one coordinate (no wrap).
Csr mixedRadixMesh(const std::vector<unsigned> &Dims);

/// Decodes node \p Id of mixedRadixMesh(\p Dims) into coordinates.
std::vector<unsigned> mixedRadixCoords(uint64_t Id,
                                       const std::vector<unsigned> &Dims);

/// Encodes coordinates into a mixedRadixMesh node id.
uint64_t mixedRadixId(const std::vector<unsigned> &Coords,
                      const std::vector<unsigned> &Dims);

/// Complete binary tree of height \p Height (2^{Height+1} - 1 nodes); node
/// id is heap order: root 0, children of v are 2v+1 and 2v+2.
Csr completeBinaryTree(unsigned Height);

} // namespace scg

#endif // SCG_NETWORKS_CLASSIC_H
