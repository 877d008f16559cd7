//===- emulation/DimensionMap.h - Star dimension decomposition -*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dimension arithmetic every emulation theorem shares: star dimension
/// j in 2..k of an (ln+1)-star decomposes as
///   j0 = (j - 2) mod n      (which ball within the box)
///   j1 = floor((j - 2) / n) (which box, 0 = the leftmost box)
/// so that j = j1 * n + j0 + 2. Dimension j touches box j1 + 1 and, once
/// that box is leftmost, nucleus dimension j0 + 2.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_EMULATION_DIMENSIONMAP_H
#define SCG_EMULATION_DIMENSIONMAP_H

namespace scg {

/// Decomposition of a star dimension relative to boxes of size n.
struct DimensionParts {
  unsigned J0; ///< (j - 2) mod n: ball slot within the box.
  unsigned J1; ///< floor((j - 2) / n): box index minus one (0 = leftmost).
};

/// Decomposes star dimension \p J (2 <= J <= ln+1) for box size \p N.
DimensionParts decomposeDimension(unsigned J, unsigned N);

} // namespace scg

#endif // SCG_EMULATION_DIMENSIONMAP_H
