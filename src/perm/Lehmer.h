//===- perm/Lehmer.h - Lehmer codes and permutation ranking ----*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lehmer codes and the factorial number system. Ranking gives every node of
/// a k!-node super Cayley graph a dense integer id in [0, k!), which is what
/// the explicit-graph builder, the simulator, and the embedding metrics use
/// instead of hashing permutations. The Lehmer code itself doubles as the
/// mixed-radix coordinate system of the 2x3x...xk mesh embedding
/// (Corollary 7 / [11]).
///
/// The rank/unrank kernels are allocation-free and table-driven: factorials
/// come from a precomputed table; ranking keeps a 64-bit word of 4-bit
/// per-symbol counters, so each Lehmer digit is one nibble read, and
/// unranking keeps the remaining symbols as a 16-bit mask, so each digit is
/// one select-bit, instead of the textbook O(k) scan per digit.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_PERM_LEHMER_H
#define SCG_PERM_LEHMER_H

#include "perm/Permutation.h"

#include <cstdint>

namespace scg {

/// Returns k! as a 64-bit value; asserts k <= 20 (the last k where k! fits).
/// A table lookup, valid in constant expressions.
uint64_t factorial(unsigned K);

/// The permutation with Lehmer code (c_0, ..., c_{k-1}) \p Code, where c_i
/// counts the entries to the right of position i that are smaller than
/// P[i]. Requires c_i < k - i (so c_{k-1} = 0).
Permutation fromLehmerCode(const std::vector<uint8_t> &Code);

/// Ranks \p P into [0, k!) lexicographically (identity has rank 0).
/// Allocation-free and popcount-free: one shift, mask and subtract per
/// symbol.
uint64_t rankPermutation(const Permutation &P);

/// Inverse of rankPermutation for permutations on \p K symbols.
/// Allocation-free (the result is an inline-storage value).
Permutation unrankPermutation(uint64_t Rank, unsigned K);

} // namespace scg

#endif // SCG_PERM_LEHMER_H
