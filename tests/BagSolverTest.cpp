//===- tests/BagSolverTest.cpp - Generic BAG solver tests ----------------===//

#include "routing/BagSolver.h"

#include "networks/Explicit.h"
#include "perm/Lehmer.h"
#include "support/Format.h"

#include "Oracles.h"

#include <gtest/gtest.h>

using namespace scg;

namespace {

/// Exhaustively checks solveBag against BFS distances from the identity.
void checkAgainstBfs(const SuperCayleyGraph &Scg, unsigned Stride) {
  ExplicitScg Net(Scg);
  oracle::BfsResult R = oracle::bfs(Net.toCsr(), 0);
  Permutation Id = Permutation::identity(Scg.numSymbols());
  for (uint64_t Rank = 0; Rank < Net.numNodes(); Rank += Stride) {
    Permutation Dst = Net.label(Rank);
    std::optional<GeneratorPath> Path = solveBag(Scg, Id, Dst);
    ASSERT_TRUE(Path) << Scg.name() << " rank " << Rank;
    EXPECT_EQ(Path->length(), R.Distance[Rank])
        << Scg.name() << " to " << Dst.str();
    EXPECT_TRUE(Path->connects(Scg, Id, Dst));
  }
}

} // namespace

TEST(BagSolver, TrivialInstance) {
  SuperCayleyGraph Star = SuperCayleyGraph::star(4);
  Permutation Id = Permutation::identity(4);
  std::optional<GeneratorPath> Path = solveBag(Star, Id, Id);
  ASSERT_TRUE(Path);
  EXPECT_EQ(Path->length(), 0u);
}

TEST(BagSolver, MatchesBfsOnStar5) {
  checkAgainstBfs(SuperCayleyGraph::star(5), 1);
}

TEST(BagSolver, MatchesBfsOnMacroStar22) {
  checkAgainstBfs(SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2), 1);
}

TEST(BagSolver, MatchesBfsOnInsertionSelection5) {
  checkAgainstBfs(SuperCayleyGraph::insertionSelection(5), 1);
}

TEST(BagSolver, MatchesBfsOnCompleteRotationStar32) {
  checkAgainstBfs(
      SuperCayleyGraph::create(NetworkKind::CompleteRotationStar, 3, 2), 11);
}

TEST(BagSolver, MatchesBfsOnDirectedMacroRotator) {
  // Directed network: backward search uses inverse actions that are not
  // links; the path itself must still use only forward links.
  checkAgainstBfs(SuperCayleyGraph::create(NetworkKind::MacroRotator, 2, 2),
                  1);
}

TEST(BagSolver, MatchesBfsOnRotationRotator) {
  checkAgainstBfs(
      SuperCayleyGraph::create(NetworkKind::RotationRotator, 3, 2), 13);
}

TEST(BagSolver, RespectsMaxDepth) {
  SuperCayleyGraph Star = SuperCayleyGraph::star(6);
  Permutation Id = Permutation::identity(6);
  // Reversal-ish permutation at distance >= 4.
  Permutation Far = Permutation::parseOneBased("6 5 4 3 2 1");
  EXPECT_FALSE(solveBag(Star, Id, Far, /*MaxDepth=*/2));
  EXPECT_TRUE(solveBag(Star, Id, Far, /*MaxDepth=*/20));
}

TEST(BagSolver, ArbitraryEndpoints) {
  SuperCayleyGraph Mis = SuperCayleyGraph::create(NetworkKind::MacroIS, 2, 2);
  SplitMix64 Rng(5);
  for (int Trial = 0; Trial != 40; ++Trial) {
    Permutation A = unrankPermutation(Rng.nextBelow(factorial(5)), 5);
    Permutation B = unrankPermutation(Rng.nextBelow(factorial(5)), 5);
    std::optional<GeneratorPath> Path = solveBag(Mis, A, B);
    ASSERT_TRUE(Path);
    EXPECT_TRUE(Path->connects(Mis, A, B));
  }
}

TEST(BagSolver, DistanceHelperAgrees) {
  SuperCayleyGraph Is = SuperCayleyGraph::insertionSelection(5);
  Permutation Id = Permutation::identity(5);
  Permutation Dst = Permutation::parseOneBased("2 3 4 5 1");
  std::optional<unsigned> Dist = oracle::bagDistance(Is, Id, Dst);
  ASSERT_TRUE(Dist);
  EXPECT_EQ(*Dist, 1u); // I_5 in one hop.
}
