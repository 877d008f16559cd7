//===- tests/RotatorRouterTest.cpp - Rotator routing tests ---------------===//

#include "routing/RotatorRouter.h"

#include "Oracles.h"

#include "core/Generator.h"
#include "perm/Lehmer.h"
#include "routing/BagSolver.h"
#include "support/Format.h"

#include <gtest/gtest.h>

using namespace scg;

TEST(RotatorRouter, IdentityNeedsNoMoves) {
  EXPECT_TRUE(rotatorWordForPermutation(Permutation::identity(5)).empty());
}

TEST(RotatorRouter, SingleInsertionIsOneHop) {
  Permutation P = Permutation::identity(6).compose(makeInsertion(6, 4).Sigma);
  std::vector<unsigned> Word = rotatorWordForPermutation(P);
  Permutation Product = Permutation::identity(6);
  for (unsigned Dim : Word)
    Product = Product.compose(makeInsertion(6, Dim).Sigma);
  EXPECT_EQ(Product, P);
}

TEST(RotatorRouter, WordRealizesEveryPermutationOfS5) {
  for (uint64_t Rank = 0; Rank != factorial(5); ++Rank) {
    Permutation P = unrankPermutation(Rank, 5);
    Permutation Product = Permutation::identity(5);
    for (unsigned Dim : rotatorWordForPermutation(P)) {
      ASSERT_GE(Dim, 2u);
      ASSERT_LE(Dim, 5u);
      Product = Product.compose(makeInsertion(5, Dim).Sigma);
    }
    EXPECT_EQ(Product, P) << P.str();
  }
}

TEST(RotatorRouter, LengthWithinBound) {
  for (unsigned K = 3; K <= 7; ++K) {
    SplitMix64 Rng(K);
    for (int Trial = 0; Trial != 100; ++Trial) {
      Permutation P = unrankPermutation(Rng.nextBelow(factorial(K)), K);
      EXPECT_LE(rotatorWordForPermutation(P).size(), rotatorRouteBound(K));
    }
  }
}

TEST(RotatorRouter, RoutesConnectInTheNetwork) {
  SuperCayleyGraph Rot = SuperCayleyGraph::rotator(5);
  SplitMix64 Rng(9);
  for (int Trial = 0; Trial != 60; ++Trial) {
    Permutation A = unrankPermutation(Rng.nextBelow(factorial(5)), 5);
    Permutation B = unrankPermutation(Rng.nextBelow(factorial(5)), 5);
    GeneratorPath Path = oracle::routeInRotator(Rot, A, B);
    EXPECT_TRUE(Path.connects(Rot, A, B));
    // Never shorter than the exact shortest path.
    EXPECT_GE(Path.length(), solveBag(Rot, A, B)->length());
  }
}

TEST(RotatorRouter, RotatorGraphShape) {
  SuperCayleyGraph Rot = SuperCayleyGraph::rotator(6);
  EXPECT_EQ(Rot.degree(), 5u);
  EXPECT_FALSE(Rot.isUndirected());
  EXPECT_EQ(Rot.name(), "rotator(6)");
}

TEST(RotatorRouter, BoundFormula) {
  EXPECT_EQ(rotatorRouteBound(5), 10u + 4u);
}
