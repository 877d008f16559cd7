//===- core/Generator.h - Nucleus and super generators ---------*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The generator zoo of Section 2 of the paper. Every generator is a
/// permutation Sigma of positions {1..k} (stored 0-based) acting on a node
/// label U by right composition V = U o Sigma, together with a display name
/// and a nucleus/super classification from the ball-arrangement game:
///
///   - nucleus generators permute the leftmost n+1 symbols (the outside ball
///     plus the leftmost box): T_i, I_i, I_i^-1;
///   - super generators permute whole super-symbols (boxes): S_{n,i}, R^i.
///
/// Paper-facing factories below take the paper's 1-based indices.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_CORE_GENERATOR_H
#define SCG_CORE_GENERATOR_H

#include "perm/Permutation.h"

#include <string>

namespace scg {

/// Whether a generator moves balls in the leftmost box (nucleus) or moves
/// whole boxes (super), per Section 2.1 of the paper.
enum class GeneratorKind { Nucleus, Super };

/// A named link type of a super Cayley graph.
struct Generator {
  std::string Name;  ///< Display name, e.g. "T3", "S2", "R^2", "I4", "I4'".
  Permutation Sigma; ///< Action on positions (right composition).
  GeneratorKind Kind = GeneratorKind::Nucleus;
};

/// Star-graph transposition generator T_i (paper Def. in [21]): swaps the
/// symbols at positions 1 and \p I, for 2 <= I <= K.
Generator makeTransposition(unsigned K, unsigned I);

/// Transposition-network generator T_{i,j} [12]: swaps the symbols at
/// positions \p I and \p J, for 1 <= I < J <= K.
Generator makePairTransposition(unsigned K, unsigned I, unsigned J);

/// Bubble-sort generator A_i: swaps positions \p I and I+1, 1 <= I <= K-1.
Generator makeAdjacentTransposition(unsigned K, unsigned I);

/// Swap super generator S_{n,i} [21]: exchanges super-symbol 1 (positions
/// 2..n+1) with super-symbol \p I (positions (I-1)n+2..In+1), 2 <= I <= l,
/// where K = l*n + 1.
Generator makeSwap(unsigned K, unsigned N, unsigned I);

/// Insertion generator I_i (Definition 1): cyclically shifts the leftmost
/// \p I symbols left by one, 2 <= I <= K.
Generator makeInsertion(unsigned K, unsigned I);

/// Selection generator I_i^-1 (Definition 2): cyclically shifts the leftmost
/// \p I symbols right by one, 2 <= I <= K.
Generator makeSelection(unsigned K, unsigned I);

/// Rotation generator R^i_n (Definition 3): cyclically shifts the rightmost
/// K-1 symbols right by n*i positions; exponent \p I is taken mod l where
/// K = l*n + 1. R^0 is the identity and is rejected (asserted).
Generator makeRotation(unsigned K, unsigned N, int I);

} // namespace scg

#endif // SCG_CORE_GENERATOR_H
