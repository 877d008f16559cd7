//===- tests/TreeEmbeddingTest.cpp - Corollary 4 tree tests --------------===//

#include "embedding/TreeEmbedding.h"

#include "networks/Classic.h"

#include <gtest/gtest.h>

using namespace scg;

TEST(TreeEmbedding, Dilation1Height3IntoStar5) {
  ExplicitScg Star(SuperCayleyGraph::star(5));
  TreeEmbeddingResult R = embedTreeIntoStar(Star, /*Height=*/3,
                                            /*MaxDilation=*/1);
  ASSERT_TRUE(R.Found);
  Graph Guest = completeBinaryTree(3);
  EmbeddingMetrics M = measureEmbedding(Guest, R.E);
  EXPECT_TRUE(M.Valid);
  EXPECT_EQ(M.Load, 1u);
  EXPECT_EQ(M.Dilation, 1u);
}

TEST(TreeEmbedding, Dilation1Height4IntoStar5) {
  ExplicitScg Star(SuperCayleyGraph::star(5));
  TreeEmbeddingResult R = embedTreeIntoStar(Star, 4, 1);
  ASSERT_TRUE(R.Found);
  EmbeddingMetrics M = measureEmbedding(completeBinaryTree(4), R.E);
  EXPECT_TRUE(M.Valid);
  EXPECT_EQ(M.Dilation, 1u);
}

TEST(TreeEmbedding, Height5IntoStar5WithinDilation2) {
  // [5] proves height 2k-5 = 5 embeds with dilation 1 into the 5-star;
  // the budgeted search is allowed to settle for dilation 2 here.
  ExplicitScg Star(SuperCayleyGraph::star(5));
  TreeEmbeddingResult R = embedTreeIntoStar(Star, 5, 1, 4'000'000);
  if (!R.Found)
    R = embedTreeIntoStar(Star, 5, 2, 4'000'000);
  ASSERT_TRUE(R.Found);
  EmbeddingMetrics M = measureEmbedding(completeBinaryTree(5), R.E);
  EXPECT_TRUE(M.Valid);
  EXPECT_EQ(M.Load, 1u);
  EXPECT_LE(M.Dilation, 2u);
}

TEST(TreeEmbedding, TooTallTreeIsRejected) {
  ExplicitScg Star(SuperCayleyGraph::star(4));
  // 2^6 - 1 = 63 > 24 nodes: no one-to-one embedding exists.
  TreeEmbeddingResult R = embedTreeIntoStar(Star, 5, 2);
  EXPECT_FALSE(R.Found);
}

TEST(TreeEmbedding, RootSitsAtIdentity) {
  ExplicitScg Star(SuperCayleyGraph::star(5));
  TreeEmbeddingResult R = embedTreeIntoStar(Star, 2, 1);
  ASSERT_TRUE(R.Found);
  EXPECT_TRUE(R.E.NodeMap[0].isIdentity());
}

TEST(TreeEmbedding, BudgetExhaustionReportsSteps) {
  ExplicitScg Star(SuperCayleyGraph::star(5));
  TreeEmbeddingResult R = embedTreeIntoStar(Star, 5, 1, /*StepBudget=*/50);
  if (!R.Found) {
    EXPECT_GE(R.StepsUsed, 50u);
  }
}
