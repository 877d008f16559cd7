//===- perm/Lehmer.cpp - Lehmer codes and permutation ranking ------------===//

#include "perm/Lehmer.h"

#include <array>
#include <bit>
#include <cassert>

using namespace scg;

namespace {

/// 0! .. 20!, the whole range representable in 64 bits.
constexpr std::array<uint64_t, 21> Factorials = [] {
  std::array<uint64_t, 21> T{};
  T[0] = 1;
  for (unsigned I = 1; I != T.size(); ++I)
    T[I] = T[I - 1] * I;
  return T;
}();

/// Isolates the \p Index-th (0-based, from the LSB) set bit of \p Mask.
/// \p Mask must have more than \p Index set bits. Each clear-lowest step is
/// one and/sub, so selecting digit c costs c single-cycle ops (c < 16).
inline uint32_t selectBit(uint32_t Mask, unsigned Index) {
  for (; Index != 0; --Index)
    Mask &= Mask - 1; // clear lowest set bit.
  return Mask & (~Mask + 1u);
}

} // namespace

uint64_t scg::factorial(unsigned K) {
  assert(K <= 20 && "k! overflows uint64_t beyond k = 20");
  return Factorials[K];
}

Permutation scg::fromLehmerCode(const std::vector<uint8_t> &Code) {
  unsigned K = Code.size();
  assert(K <= 255 && "symbols are stored as uint8_t");
  std::vector<uint8_t> Pool(K);
  for (unsigned I = 0; I != K; ++I)
    Pool[I] = static_cast<uint8_t>(I);
  std::vector<uint8_t> Word(K);
  for (unsigned I = 0; I != K; ++I) {
    assert(Code[I] < K - I && "Lehmer digit out of range");
    Word[I] = Pool[Code[I]];
    Pool.erase(Pool.begin() + Code[I]);
  }
  return Permutation::fromWord(Word.data(), K);
}

uint64_t scg::rankPermutation(const Permutation &P) {
  unsigned K = P.size();
  assert(K <= Permutation::InlineCapacity &&
         "rank kernel covers the inline (enumerable) regime only");
  // c_i = |{j > i : P[j] < P[i]}| = number of not-yet-seen symbols smaller
  // than P[i]. Less keeps that count for every symbol s in its nibble s,
  // starting at s; seeing s decrements nibbles s+1..15. Nibble t is t minus
  // the distinct seen symbols below t, never negative, so no nibble
  // borrows. The two-step shift keeps each shift below 64 bits, so s = 15
  // subtracts nothing.
  uint64_t Less = 0xFEDCBA9876543210ULL;
  uint64_t Rank = 0;
  for (unsigned I = 0; I != K; ++I) {
    unsigned Shift = 4 * unsigned(P[I]);
    Rank += ((Less >> Shift) & 15) * Factorials[K - 1 - I];
    Less -= (0x1111111111111111ULL << Shift) << 4;
  }
  return Rank;
}

Permutation scg::unrankPermutation(uint64_t Rank, unsigned K) {
  assert(K <= Permutation::InlineCapacity &&
         "unrank kernel covers the inline (enumerable) regime only");
  assert(Rank < factorial(K) && "rank out of range");
  // Digits low-to-high (small radices), then symbols high-to-low by
  // select-bit against the remaining-symbol mask.
  uint8_t Code[Permutation::InlineCapacity];
  for (unsigned I = K; I != 0; --I) {
    unsigned Radix = K - I + 1; // digit I-1 has radix K - (I-1).
    Code[I - 1] = static_cast<uint8_t>(Rank % Radix);
    Rank /= Radix;
  }
  uint32_t Remaining = (K == 0) ? 0 : (~0u >> (32 - K));
  uint8_t Word[Permutation::InlineCapacity];
  for (unsigned I = 0; I != K; ++I) {
    uint32_t Bit = selectBit(Remaining, Code[I]);
    Word[I] = static_cast<uint8_t>(std::countr_zero(Bit));
    Remaining ^= Bit;
  }
  return Permutation::fromWord(Word, K);
}
