//===- tests/LehmerTest.cpp - Ranking and factorial system tests ---------===//

#include "perm/Lehmer.h"

#include "Oracles.h"

#include <gtest/gtest.h>

using namespace scg;

TEST(Factorial, SmallValues) {
  EXPECT_EQ(factorial(0), 1u);
  EXPECT_EQ(factorial(1), 1u);
  EXPECT_EQ(factorial(5), 120u);
  EXPECT_EQ(factorial(10), 3628800u);
  EXPECT_EQ(factorial(20), 2432902008176640000ULL);
}

TEST(Lehmer, CodeOfIdentityIsZero) {
  std::vector<uint8_t> Code = oracle::lehmerCode(Permutation::identity(6));
  for (uint8_t C : Code)
    EXPECT_EQ(C, 0);
}

TEST(Lehmer, CodeOfReversalIsMaximal) {
  Permutation P = Permutation::fromOneLine({3, 2, 1, 0});
  std::vector<uint8_t> Code = oracle::lehmerCode(P);
  EXPECT_EQ(Code, (std::vector<uint8_t>{3, 2, 1, 0}));
  EXPECT_EQ(rankPermutation(P), factorial(4) - 1);
}

TEST(Lehmer, KnownRank) {
  // 2 0 1 (0-based) is the 4th permutation of S_3 lexicographically.
  EXPECT_EQ(rankPermutation(Permutation::fromOneLine({2, 0, 1})), 4u);
}

TEST(Lehmer, RankIsLexicographicOrder) {
  // Ranks enumerate S_4 in lexicographic one-line order.
  Permutation Prev = unrankPermutation(0, 4);
  for (uint64_t R = 1; R != factorial(4); ++R) {
    Permutation Cur = unrankPermutation(R, 4);
    EXPECT_LT(Prev, Cur);
    Prev = Cur;
  }
}

TEST(Lehmer, RoundTripAllOfS6) {
  for (uint64_t R = 0; R != factorial(6); ++R) {
    Permutation P = unrankPermutation(R, 6);
    EXPECT_EQ(rankPermutation(P), R);
    EXPECT_EQ(fromLehmerCode(oracle::lehmerCode(P)), P);
  }
}

TEST(Lehmer, DigitsStayInRange) {
  for (uint64_t R = 0; R != factorial(5); ++R) {
    std::vector<uint8_t> Code = oracle::lehmerCode(unrankPermutation(R, 5));
    for (unsigned I = 0; I != Code.size(); ++I)
      EXPECT_LT(Code[I], Code.size() - I);
  }
}

TEST(Lehmer, IdentityHasRankZero) {
  for (unsigned K = 1; K <= 8; ++K)
    EXPECT_EQ(rankPermutation(Permutation::identity(K)), 0u);
}
