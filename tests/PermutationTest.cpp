//===- tests/PermutationTest.cpp - Permutation algebra tests -------------===//

#include "perm/Permutation.h"

#include "perm/Lehmer.h"
#include "support/Format.h"

#include "Oracles.h"

#include <gtest/gtest.h>

#include <unordered_set>

using namespace scg;

TEST(Permutation, IdentityBasics) {
  Permutation Id = Permutation::identity(5);
  EXPECT_EQ(Id.size(), 5u);
  EXPECT_TRUE(Id.isIdentity());
  EXPECT_EQ(Id.numDisplaced(), 0u);
  EXPECT_TRUE(Id.nontrivialCycles().empty());
  EXPECT_EQ(oracle::sign(Id), 1);
  for (unsigned P = 0; P != 5; ++P)
    EXPECT_EQ(Id[P], P);
}

TEST(Permutation, FromOneLine) {
  Permutation P = Permutation::fromOneLine({2, 0, 1});
  EXPECT_EQ(P.size(), 3u);
  EXPECT_EQ(P[0], 2);
  EXPECT_EQ(P[1], 0);
  EXPECT_EQ(P[2], 1);
  EXPECT_FALSE(P.isIdentity());
}

TEST(Permutation, ParseOneBasedRoundTrip) {
  Permutation P = Permutation::parseOneBased("3 1 2");
  EXPECT_EQ(P, Permutation::fromOneLine({2, 0, 1}));
  EXPECT_EQ(P.str(), "3 1 2");
}

TEST(Permutation, ParseRejectsMalformed) {
  EXPECT_EQ(Permutation::parseOneBased("1 1 2").size(), 0u);
  EXPECT_EQ(Permutation::parseOneBased("0 1 2").size(), 0u);
  EXPECT_EQ(Permutation::parseOneBased("1 2 5").size(), 0u);
}

TEST(Permutation, ComposeDefinition) {
  // (P o Q)[i] = P[Q[i]].
  Permutation P = Permutation::fromOneLine({1, 2, 0});
  Permutation Q = Permutation::fromOneLine({2, 1, 0});
  Permutation R = P.compose(Q);
  for (unsigned I = 0; I != 3; ++I)
    EXPECT_EQ(R[I], P[Q[I]]);
}

TEST(Permutation, ComposeIdentityIsNeutral) {
  Permutation P = Permutation::fromOneLine({3, 1, 0, 2});
  Permutation Id = Permutation::identity(4);
  EXPECT_EQ(P.compose(Id), P);
  EXPECT_EQ(Id.compose(P), P);
}

TEST(Permutation, InverseComposesToIdentity) {
  Permutation P = Permutation::fromOneLine({3, 0, 2, 1});
  EXPECT_TRUE(P.compose(P.inverse()).isIdentity());
  EXPECT_TRUE(P.inverse().compose(P).isIdentity());
}

TEST(Permutation, PositionOf) {
  Permutation P = Permutation::fromOneLine({3, 0, 2, 1});
  for (unsigned S = 0; S != 4; ++S)
    EXPECT_EQ(P[oracle::positionOf(P, S)], S);
}

TEST(Permutation, CyclesOfThreeCycle) {
  Permutation P = Permutation::fromOneLine({1, 2, 0, 3});
  auto Cycles = P.nontrivialCycles();
  ASSERT_EQ(Cycles.size(), 1u);
  EXPECT_EQ(Cycles[0], (std::vector<uint8_t>{0, 1, 2}));
  EXPECT_EQ(P.numDisplaced(), 3u);
}

TEST(Permutation, CyclesOfTwoTranspositions) {
  Permutation P = Permutation::fromOneLine({1, 0, 3, 2});
  auto Cycles = P.nontrivialCycles();
  ASSERT_EQ(Cycles.size(), 2u);
  EXPECT_EQ(oracle::sign(P), 1); // even: product of two transpositions.
}

TEST(Permutation, SignOfTransposition) {
  Permutation P = Permutation::fromOneLine({1, 0, 2});
  EXPECT_EQ(oracle::sign(P), -1);
}

TEST(Permutation, StrBoxesLayout) {
  // k = 5 = 2*2 + 1: outside ball then two boxes of two.
  Permutation P = Permutation::fromOneLine({0, 2, 1, 4, 3});
  EXPECT_EQ(P.strBoxes(2), "1 | 3 2 | 5 4");
}

TEST(Permutation, HashSpreadsAllOfS5) {
  std::unordered_set<size_t> Hashes;
  PermutationHash Hash;
  for (uint64_t R = 0; R != factorial(5); ++R)
    Hashes.insert(Hash(unrankPermutation(R, 5)));
  // All 120 permutations hash distinctly (FNV over 5 bytes).
  EXPECT_EQ(Hashes.size(), factorial(5));
}

TEST(Permutation, LexicographicOrder) {
  EXPECT_LT(Permutation::fromOneLine({0, 1, 2}),
            Permutation::fromOneLine({0, 2, 1}));
}

// Property: composition is associative and inverse anti-distributes,
// checked over pseudo-random triples.
TEST(Permutation, PropertyAssociativityAndInverse) {
  SplitMix64 Rng(42);
  for (int Trial = 0; Trial != 200; ++Trial) {
    unsigned K = 2 + Rng.nextBelow(8);
    Permutation A = unrankPermutation(Rng.nextBelow(factorial(K)), K);
    Permutation B = unrankPermutation(Rng.nextBelow(factorial(K)), K);
    Permutation C = unrankPermutation(Rng.nextBelow(factorial(K)), K);
    EXPECT_EQ(A.compose(B).compose(C), A.compose(B.compose(C)));
    EXPECT_EQ(A.compose(B).inverse(), B.inverse().compose(A.inverse()));
    EXPECT_EQ(oracle::sign(A) * oracle::sign(B), oracle::sign(A.compose(B)));
  }
}

TEST(Permutation, PropertyCyclesPartitionDisplaced) {
  SplitMix64 Rng(7);
  for (int Trial = 0; Trial != 100; ++Trial) {
    unsigned K = 2 + Rng.nextBelow(7);
    Permutation P = unrankPermutation(Rng.nextBelow(factorial(K)), K);
    unsigned Sum = 0;
    for (const auto &Cycle : P.nontrivialCycles()) {
      EXPECT_GE(Cycle.size(), 2u);
      Sum += Cycle.size();
    }
    EXPECT_EQ(Sum, P.numDisplaced());
  }
}
