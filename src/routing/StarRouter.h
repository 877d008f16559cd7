//===- routing/StarRouter.h - Optimal star-graph routing -------*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shortest-path routing in the k-star graph (Akers-Krishnamurthy [2]).
/// Routing from U to V is sorting the relative permutation P = U^-1 o V:
/// find dimensions j1, ..., jm with T_{j1} o T_{j2} o ... o T_{jm} = P,
/// since then U o T_{j1} o ... o T_{jm} = V. In BAG terms this exchanges
/// the outside ball with balls in the single box until every ball is home.
/// The greedy send-the-front-symbol-home rule is optimal, and the
/// closed-form distance
///   d(P) = m + c - 2 * [P displaces position 1]
/// (m displaced symbols, c nontrivial cycles) matches it; both are
/// verified against BFS in the tests.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_ROUTING_STARROUTER_H
#define SCG_ROUTING_STARROUTER_H

#include "perm/Permutation.h"

#include <cstdint>
#include <span>
#include <vector>

namespace scg {

/// Length of the longest shortest star route on \p K symbols, the star
/// graph's diameter floor(3(k-1)/2): room enough for any starWordInto word.
constexpr unsigned starWordBound(unsigned K) {
  return K ? 3 * (K - 1) / 2 : 0;
}

/// The star sorter: writes the dimensions (values j in 2..k, meaning
/// generator T_j) of a shortest word with T_{j1} o T_{j2} o ... o T_{jm} =
/// \p P into \p Dims, which holds at least starWordBound(k) entries, and
/// returns m (0 for the identity). Allocation-free; for k <= 16 a stack
/// buffer of starWordBound(16) = 22 bytes fits every word.
unsigned starWordInto(const Permutation &P, std::span<uint8_t> Dims);

/// starWordInto as a vector, checked against starDistance.
std::vector<unsigned> starWordForPermutation(const Permutation &P);

/// Returns the star dimensions of a shortest route from \p Src to \p Dst
/// (a word for Src^-1 o Dst).
std::vector<unsigned> starRouteDimensions(const Permutation &Src,
                                          const Permutation &Dst);

/// Closed-form star-graph distance of the relative permutation \p P.
unsigned starDistance(const Permutation &P);

/// Star-graph distance between two labels.
unsigned starDistance(const Permutation &Src, const Permutation &Dst);

} // namespace scg

#endif // SCG_ROUTING_STARROUTER_H
