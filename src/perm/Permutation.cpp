//===- perm/Permutation.cpp - Dense permutations on k symbols ------------===//

#include "perm/Permutation.h"

#include "support/Format.h"

#include <algorithm>
#include <bitset>
#include <sstream>

using namespace scg;

#ifndef NDEBUG
/// Debug-only: \p Word holds each of 0..K-1 exactly once.
static bool isPermutationWord(const uint8_t *Word, unsigned K) {
  std::bitset<256> Seen;
  for (unsigned I = 0; I != K; ++I) {
    if (Word[I] >= K || Seen[Word[I]])
      return false;
    Seen[Word[I]] = true;
  }
  return true;
}
#endif

uint8_t *Permutation::resizeUninit(unsigned K) {
  assert(K <= 255 && "symbols are stored as uint8_t");
  destroy();
  Size = static_cast<uint8_t>(K);
  if (isInline()) {
    std::memset(Inline, 0, InlineCapacity);
    return Inline;
  }
  Heap = new uint8_t[K];
  return Heap;
}

void Permutation::composeIntoSlow(const Permutation &Rhs,
                                  Permutation &Out) const {
  // Spilled sizes: compose through a temporary so Out may alias an operand.
  Permutation Result;
  uint8_t *Word = Result.resizeUninit(Size);
  const uint8_t *A = data(), *B = Rhs.data();
  for (unsigned P = 0; P != Size; ++P)
    Word[P] = A[B[P]];
  Out = std::move(Result);
}

Permutation Permutation::identity(unsigned K) {
  Permutation P;
  uint8_t *Word = P.resizeUninit(K);
  for (unsigned I = 0; I != K; ++I)
    Word[I] = static_cast<uint8_t>(I);
  return P;
}

Permutation Permutation::fromWord(const uint8_t *Word, unsigned K) {
  assert(isPermutationWord(Word, K) && "word is not a permutation of 0..K-1");
  Permutation P;
  uint8_t *Dst = P.resizeUninit(K);
  if (K != 0)
    std::memcpy(Dst, Word, K);
  return P;
}

Permutation Permutation::fromOneLine(std::vector<uint8_t> OneLine) {
  return fromWord(OneLine.data(), OneLine.size());
}

Permutation Permutation::parseOneBased(const std::string &Text) {
  std::istringstream IS(Text);
  std::vector<uint8_t> OneLine;
  long Value;
  while (IS >> Value) {
    if (Value < 1 || Value > 255)
      return Permutation();
    OneLine.push_back(static_cast<uint8_t>(Value - 1));
  }
  // Validate: must be a permutation of 0..size-1.
  if (OneLine.size() > 255)
    return Permutation();
  std::bitset<256> Seen;
  for (uint8_t E : OneLine) {
    if (E >= OneLine.size() || Seen[E])
      return Permutation();
    Seen[E] = true;
  }
  return fromOneLine(std::move(OneLine));
}

Permutation Permutation::inverse() const {
  Permutation Result;
  uint8_t *Word = Result.resizeUninit(Size);
  const uint8_t *Src = data();
  for (unsigned P = 0; P != Size; ++P)
    Word[Src[P]] = static_cast<uint8_t>(P);
  return Result;
}

bool Permutation::isIdentity() const { return *this == identity(Size); }

std::string Permutation::str() const {
  const uint8_t *Word = data();
  std::vector<unsigned> OneBased;
  OneBased.reserve(Size);
  for (unsigned P = 0; P != Size; ++P)
    OneBased.push_back(Word[P] + 1u);
  return join(OneBased, " ");
}

std::string Permutation::strBoxes(unsigned N) const {
  assert(N != 0 && (Size - 1) % N == 0 &&
         "label length must be l*n+1 for the boxes view");
  const uint8_t *Word = data();
  std::ostringstream OS;
  OS << unsigned(Word[0]) + 1;
  for (unsigned P = 1; P != Size; ++P) {
    OS << (((P - 1) % N == 0) ? " | " : " ");
    OS << unsigned(Word[P]) + 1;
  }
  return OS.str();
}
