//===- tests/RouteOptimizerTest.cpp - Path simplification tests ----------===//

#include "routing/RouteOptimizer.h"

#include "Oracles.h"
#include "perm/Lehmer.h"
#include "support/Format.h"

#include <gtest/gtest.h>

using namespace scg;

TEST(RouteOptimizer, EmptyPathStaysEmpty) {
  SuperCayleyGraph Ms = SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2);
  EXPECT_EQ(simplifyPath(Ms, GeneratorPath()).length(), 0u);
}

TEST(RouteOptimizer, CancelsAdjacentInvolutions) {
  SuperCayleyGraph Ms = SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2);
  GenIndex S2 = *oracle::findByName(Ms.generators(), "S2");
  GenIndex T2 = *oracle::findByName(Ms.generators(), "T2");
  GeneratorPath Path(std::vector<GenIndex>{T2, S2, S2, T2});
  GeneratorPath Simple = simplifyPath(Ms, Path);
  EXPECT_EQ(Simple.length(), 0u); // T2 S2 S2 T2 collapses entirely.
}

TEST(RouteOptimizer, CancelsInsertionSelectionPairs) {
  SuperCayleyGraph Is = SuperCayleyGraph::insertionSelection(5);
  GenIndex I4 = *oracle::findByName(Is.generators(), "I4");
  GenIndex I4inv = *oracle::findByName(Is.generators(), "I4'");
  GeneratorPath Path(std::vector<GenIndex>{I4, I4inv});
  EXPECT_EQ(simplifyPath(Is, Path).length(), 0u);
}

TEST(RouteOptimizer, FoldsRotations) {
  // R R = R^2 on a complete-rotation network.
  SuperCayleyGraph Net =
      SuperCayleyGraph::create(NetworkKind::CompleteRotationStar, 4, 2);
  GenIndex R = *oracle::findByName(Net.generators(), "R");
  GeneratorPath Path(std::vector<GenIndex>{R, R});
  GeneratorPath Simple = simplifyPath(Net, Path);
  ASSERT_EQ(Simple.length(), 1u);
  EXPECT_EQ(Net.generators()[Simple.hops()[0]].Name, "R^2");
}

TEST(RouteOptimizer, FoldCascades) {
  // R R R R = identity when l = 4.
  SuperCayleyGraph Net =
      SuperCayleyGraph::create(NetworkKind::CompleteRotationStar, 4, 2);
  GenIndex R = *oracle::findByName(Net.generators(), "R");
  GeneratorPath Path(std::vector<GenIndex>{R, R, R, R});
  EXPECT_EQ(simplifyPath(Net, Path).length(), 0u);
}

TEST(RouteOptimizer, PreservesEndpointsOnLiftedRoutes) {
  SplitMix64 Rng(77);
  for (NetworkKind Kind :
       {NetworkKind::MacroStar, NetworkKind::CompleteRotationStar,
        NetworkKind::MacroIS}) {
    SuperCayleyGraph Net = SuperCayleyGraph::create(Kind, 3, 2);
    for (int Trial = 0; Trial != 60; ++Trial) {
      Permutation A = unrankPermutation(Rng.nextBelow(factorial(7)), 7);
      Permutation B = unrankPermutation(Rng.nextBelow(factorial(7)), 7);
      GeneratorPath Lifted = oracle::routeViaStarEmulation(Net, A, B);
      GeneratorPath Simple = simplifyPath(Net, Lifted);
      EXPECT_TRUE(Simple.connects(Net, A, B)) << Net.name();
      EXPECT_LE(Simple.length(), Lifted.length());
    }
  }
}

TEST(RouteOptimizer, ShortensBackToBackBoxVisits) {
  // Two consecutive star dimensions in the same box leave S2 S2 in the
  // lifted route; simplification removes both hops.
  SuperCayleyGraph Ms = SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2);
  Permutation Id = Permutation::identity(5);
  // T_4 then T_5: lifted = S2 T2 S2 S2 T3 S2.
  Permutation Dst = Id.compose(makeTransposition(5, 4).Sigma)
                        .compose(makeTransposition(5, 5).Sigma);
  GeneratorPath Lifted = oracle::routeViaStarEmulation(Ms, Id, Dst);
  GeneratorPath Simple = simplifyPath(Ms, Lifted);
  EXPECT_LT(Simple.length(), Lifted.length());
  EXPECT_TRUE(Simple.connects(Ms, Id, Dst));
}

TEST(RouteOptimizer, IsIdempotent) {
  SuperCayleyGraph Net =
      SuperCayleyGraph::create(NetworkKind::CompleteRotationIS, 3, 2);
  SplitMix64 Rng(99);
  for (int Trial = 0; Trial != 40; ++Trial) {
    Permutation A = unrankPermutation(Rng.nextBelow(factorial(7)), 7);
    Permutation B = unrankPermutation(Rng.nextBelow(factorial(7)), 7);
    GeneratorPath Once =
        simplifyPath(Net, oracle::routeViaStarEmulation(Net, A, B));
    GeneratorPath Twice = simplifyPath(Net, Once);
    EXPECT_EQ(Once.hops(), Twice.hops());
  }
}
