//===- tests/StarRouterTest.cpp - Star routing optimality ----------------===//

#include "routing/StarRouter.h"

#include "core/Generator.h"
#include "graph/Bfs.h"
#include "support/Format.h"

#include "graph/Metrics.h"
#include "networks/Explicit.h"
#include "perm/Lehmer.h"

#include "AllocCounter.h"
#include "Oracles.h"

#include <gtest/gtest.h>

using namespace scg;

TEST(StarRouter, IdentityNeedsNoMoves) {
  EXPECT_TRUE(starWordForPermutation(Permutation::identity(5)).empty());
  EXPECT_EQ(starDistance(Permutation::identity(5)), 0u);
}

TEST(StarRouter, SingleTransposition) {
  // T_3 itself: one hop.
  Permutation P = Permutation::parseOneBased("3 2 1 4");
  EXPECT_EQ(starDistance(P), 1u);
  EXPECT_EQ(starWordForPermutation(P), (std::vector<unsigned>{3}));
}

TEST(StarRouter, WordRealizesThePermutation) {
  SplitMix64 Rng(11);
  for (int Trial = 0; Trial != 300; ++Trial) {
    unsigned K = 3 + Rng.nextBelow(6);
    Permutation P = unrankPermutation(Rng.nextBelow(factorial(K)), K);
    Permutation Product = Permutation::identity(K);
    for (unsigned Dim : starWordForPermutation(P)) {
      ASSERT_GE(Dim, 2u);
      ASSERT_LE(Dim, K);
      Product = Product.compose(makeTransposition(K, Dim).Sigma);
    }
    EXPECT_EQ(Product, P);
  }
}

TEST(StarRouter, WordsMatchReferenceForEveryPermutation) {
  // The in-place kernels against the reference that builds a Permutation
  // per move and a cycle list per distance: 46,233 permutations.
  uint64_t Checked = 0;
  for (unsigned K = 1; K <= 8; ++K)
    for (uint64_t Rank = 0; Rank != factorial(K); ++Rank, ++Checked) {
      Permutation P = unrankPermutation(Rank, K);
      ASSERT_EQ(starWordForPermutation(P), oracle::starWordReference(P))
          << P.str();
      ASSERT_EQ(starDistance(P), oracle::starDistanceReference(P)) << P.str();
    }
  EXPECT_EQ(Checked, 46233u);
}

TEST(StarRouter, DistanceIsAllocationFree) {
  Permutation P = Permutation::parseOneBased("2 3 1 5 4 8 6 7");
  Permutation Q = Permutation::parseOneBased("8 7 6 5 4 3 2 1");
  uint64_t Before = test::heapAllocations();
  unsigned D = starDistance(P) + starDistance(P, Q);
  EXPECT_EQ(test::heapAllocations(), Before);
  EXPECT_EQ(D, oracle::starDistanceReference(P) +
                   oracle::starDistanceReference(P.inverse().compose(Q)));
}

TEST(StarRouter, DistanceMatchesBfsOnAllOfS5) {
  ExplicitScg Net(SuperCayleyGraph::star(5));
  Csr G = Net.toCsr();
  BfsResult R = bfs(G, 0); // distances from the identity.
  for (uint64_t Rank = 0; Rank != factorial(5); ++Rank) {
    Permutation P = unrankPermutation(Rank, 5);
    // Route identity -> P: word for identity^-1 o P = P.
    EXPECT_EQ(starDistance(P), R.Distance[Rank]) << P.str();
    EXPECT_EQ(starWordForPermutation(P).size(), R.Distance[Rank]) << P.str();
  }
}

TEST(StarRouter, DistanceMatchesBfsOnAllOfS6) {
  ExplicitScg Net(SuperCayleyGraph::star(6));
  Csr G = Net.toCsr();
  BfsResult R = bfs(G, 0);
  for (uint64_t Rank = 0; Rank != factorial(6); ++Rank) {
    Permutation P = unrankPermutation(Rank, 6);
    EXPECT_EQ(starDistance(P), R.Distance[Rank]);
  }
}

TEST(StarRouter, RouteBetweenArbitraryLabels) {
  Permutation Src = Permutation::parseOneBased("2 3 1 5 4");
  Permutation Dst = Permutation::parseOneBased("5 1 4 2 3");
  std::vector<unsigned> Dims = starRouteDimensions(Src, Dst);
  Permutation Cur = Src;
  for (unsigned Dim : Dims)
    Cur = Cur.compose(makeTransposition(5, Dim).Sigma);
  EXPECT_EQ(Cur, Dst);
  EXPECT_EQ(Dims.size(), starDistance(Src, Dst));
}

TEST(StarRouter, DistanceIsSymmetric) {
  SplitMix64 Rng(23);
  for (int Trial = 0; Trial != 200; ++Trial) {
    unsigned K = 4 + Rng.nextBelow(4);
    Permutation A = unrankPermutation(Rng.nextBelow(factorial(K)), K);
    Permutation B = unrankPermutation(Rng.nextBelow(factorial(K)), K);
    EXPECT_EQ(starDistance(A, B), starDistance(B, A));
  }
}

TEST(StarRouter, MaxDistanceEqualsDiameterFormula) {
  for (unsigned K = 3; K <= 7; ++K) {
    unsigned Max = 0;
    for (uint64_t Rank = 0; Rank != factorial(K); ++Rank)
      Max = std::max(Max, starDistance(unrankPermutation(Rank, K)));
    EXPECT_EQ(Max, 3 * (K - 1) / 2) << "k=" << K;
  }
}
