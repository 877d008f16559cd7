//===- routing/RotatorRouter.h - Rotator-graph routing ---------*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic routing in the k-rotator graph (Corbett [6], the nucleus
/// of the MR/RR/complete-RR classes): only the insertions I_2..I_k are
/// links, so a route is an insertion-sort of the relative permutation.
/// The selection-sort strategy fixes positions k, k-1, ..., 2 in turn,
/// walking the wanted symbol to the front (each walk step is one
/// insertion) and then inserting it home; the route length is at most
/// k(k-1)/2 + (k-1). Not length-optimal -- the exact solver (BagSolver)
/// is the optimality reference in tests -- but valid at any k and linear
/// to compute. QueryEngine serves these routes for rotator hosts.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_ROUTING_ROTATORROUTER_H
#define SCG_ROUTING_ROTATORROUTER_H

#include "perm/Permutation.h"

#include <vector>

namespace scg {

/// Returns the insertion dimensions (values i in 2..k, meaning generator
/// I_i) of a route realizing the relative permutation \p P:
/// I_{i1} o I_{i2} o ... = P.
std::vector<unsigned> rotatorWordForPermutation(const Permutation &P);

/// Upper bound on rotatorWordForPermutation route length for k symbols.
unsigned rotatorRouteBound(unsigned K);

} // namespace scg

#endif // SCG_ROUTING_ROTATORROUTER_H
