//===- routing/BagSolver.h - Generic shortest-path BAG solver --*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A generic solver for the ball-arrangement game: finds a shortest
/// generator word between two configurations of any super Cayley graph by
/// bidirectional breadth-first search over the implicit Cayley graph. This
/// is exact unicast routing for any of the ten network classes and is used
/// as the ground truth the structured routers (StarRouter, QueryEngine) are
/// validated against. Exponential in the distance, so intended for
/// small k (<= 9) or short distances.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_ROUTING_BAGSOLVER_H
#define SCG_ROUTING_BAGSOLVER_H

#include "routing/Path.h"

#include <optional>

namespace scg {

/// Finds a shortest path from \p Src to \p Dst in \p Net, or nullopt if
/// unreachable within \p MaxDepth hops (0 = unlimited). Works on directed
/// networks too: the backward frontier expands along inverse actions even
/// when those are not links.
std::optional<GeneratorPath> solveBag(const SuperCayleyGraph &Net,
                                      const Permutation &Src,
                                      const Permutation &Dst,
                                      unsigned MaxDepth = 0);

} // namespace scg

#endif // SCG_ROUTING_BAGSOLVER_H
