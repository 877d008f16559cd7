//===- core/Generator.cpp - Nucleus and super generators -----------------===//

#include "core/Generator.h"

#include <cassert>

using namespace scg;

/// Builds the one-line word of the identity on \p K positions.
static std::vector<uint8_t> identityWord(unsigned K) {
  std::vector<uint8_t> Word(K);
  for (unsigned P = 0; P != K; ++P)
    Word[P] = static_cast<uint8_t>(P);
  return Word;
}

Generator scg::makeTransposition(unsigned K, unsigned I) {
  assert(I >= 2 && I <= K && "T_i requires 2 <= i <= k");
  std::vector<uint8_t> Word = identityWord(K);
  std::swap(Word[0], Word[I - 1]);
  return {"T" + std::to_string(I), Permutation::fromOneLine(std::move(Word)),
          GeneratorKind::Nucleus};
}

Generator scg::makePairTransposition(unsigned K, unsigned I, unsigned J) {
  assert(I >= 1 && I < J && J <= K && "T_{i,j} requires 1 <= i < j <= k");
  std::vector<uint8_t> Word = identityWord(K);
  std::swap(Word[I - 1], Word[J - 1]);
  return {"T" + std::to_string(I) + "," + std::to_string(J),
          Permutation::fromOneLine(std::move(Word)), GeneratorKind::Nucleus};
}

Generator scg::makeAdjacentTransposition(unsigned K, unsigned I) {
  assert(I >= 1 && I + 1 <= K && "A_i requires 1 <= i <= k-1");
  std::vector<uint8_t> Word = identityWord(K);
  std::swap(Word[I - 1], Word[I]);
  return {"A" + std::to_string(I), Permutation::fromOneLine(std::move(Word)),
          GeneratorKind::Nucleus};
}

Generator scg::makeSwap(unsigned K, unsigned N, unsigned I) {
  assert(N >= 1 && (K - 1) % N == 0 && "K must equal l*n + 1");
  [[maybe_unused]] unsigned L = (K - 1) / N;
  assert(I >= 2 && I <= L && "S_{n,i} requires 2 <= i <= l");
  std::vector<uint8_t> Word = identityWord(K);
  for (unsigned Q = 0; Q != N; ++Q)
    std::swap(Word[1 + Q], Word[(I - 1) * N + 1 + Q]);
  return {"S" + std::to_string(I), Permutation::fromOneLine(std::move(Word)),
          GeneratorKind::Super};
}

Generator scg::makeInsertion(unsigned K, unsigned I) {
  assert(I >= 2 && I <= K && "I_i requires 2 <= i <= k");
  std::vector<uint8_t> Word = identityWord(K);
  // V[p] = U[p+1] for p < I-1, V[I-1] = U[0]: cyclic left shift of the
  // leftmost I symbols.
  for (unsigned P = 0; P + 1 < I; ++P)
    Word[P] = static_cast<uint8_t>(P + 1);
  Word[I - 1] = 0;
  return {"I" + std::to_string(I), Permutation::fromOneLine(std::move(Word)),
          GeneratorKind::Nucleus};
}

Generator scg::makeSelection(unsigned K, unsigned I) {
  assert(I >= 2 && I <= K && "I_i^-1 requires 2 <= i <= k");
  std::vector<uint8_t> Word = identityWord(K);
  // V[0] = U[I-1], V[p] = U[p-1] for 1 <= p <= I-1: cyclic right shift.
  Word[0] = static_cast<uint8_t>(I - 1);
  for (unsigned P = 1; P != I; ++P)
    Word[P] = static_cast<uint8_t>(P - 1);
  return {"I" + std::to_string(I) + "'",
          Permutation::fromOneLine(std::move(Word)), GeneratorKind::Nucleus};
}

Generator scg::makeRotation(unsigned K, unsigned N, int I) {
  assert(N >= 1 && (K - 1) % N == 0 && "K must equal l*n + 1");
  unsigned L = (K - 1) / N;
  unsigned E = static_cast<unsigned>(((I % static_cast<int>(L)) + L) % L);
  assert(E != 0 && "R^0 is the identity, not a generator");
  unsigned Shift = E * N;
  std::vector<uint8_t> Word(K);
  Word[0] = 0;
  // Right shift of the K-1 rightmost symbols by Shift:
  // V[1+q] = U[1 + ((q - Shift) mod (K-1))].
  unsigned Tail = K - 1;
  for (unsigned Q = 0; Q != Tail; ++Q)
    Word[1 + Q] = static_cast<uint8_t>(1 + (Q + Tail - Shift % Tail) % Tail);
  std::string Name = (E == 1) ? "R" : ("R^" + std::to_string(E));
  return {std::move(Name), Permutation::fromOneLine(std::move(Word)),
          GeneratorKind::Super};
}
