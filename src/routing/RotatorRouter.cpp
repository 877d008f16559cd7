//===- routing/RotatorRouter.cpp - Rotator-graph routing -----------------===//

#include "routing/RotatorRouter.h"

#include <cassert>

using namespace scg;

namespace {

/// Right-multiplies the one-line word by I_i: the front symbol moves to
/// (0-based) position i-1 and the symbols in between shift left.
void applyInsertion(std::vector<uint8_t> &Word, unsigned I) {
  assert(I >= 2 && I <= Word.size() && "insertion dimension out of range");
  uint8_t Front = Word[0];
  for (unsigned P = 0; P + 1 != I; ++P)
    Word[P] = Word[P + 1];
  Word[I - 1] = Front;
}

} // namespace

std::vector<unsigned>
scg::rotatorWordForPermutation(const Permutation &P) {
  // Sorting C = P^-1 to the identity by right multiplication yields a word
  // whose product is P.
  unsigned K = P.size();
  std::vector<uint8_t> Word = P.inverse().oneLineVector();
  std::vector<unsigned> Dims;

  // Fix positions from the right; positions > Pos never move again because
  // every insertion below touches only a prefix.
  for (unsigned Pos = K; Pos-- > 1;) {
    if (Word[Pos] == Pos)
      continue;
    // Locate the symbol that belongs at Pos; it sits strictly left of Pos.
    unsigned Q = 0;
    while (Word[Q] != Pos)
      ++Q;
    assert(Q < Pos && "suffix was already sorted");
    // Walk it to the front: each insertion parks the current front symbol
    // just behind it, shifting the target one slot left.
    while (Q > 0) {
      Dims.push_back(Q + 1);
      applyInsertion(Word, Q + 1);
      --Q;
    }
    // Insert it home.
    Dims.push_back(Pos + 1);
    applyInsertion(Word, Pos + 1);
  }
  assert(Permutation::fromOneLine(Word).isIdentity() && "sort incomplete");
  return Dims;
}

unsigned scg::rotatorRouteBound(unsigned K) {
  // Each of the k-1 fixed positions costs at most its walk (<= k-1 steps)
  // plus the final insertion; the walks telescope to k(k-1)/2 total.
  return K * (K - 1) / 2 + (K - 1);
}
