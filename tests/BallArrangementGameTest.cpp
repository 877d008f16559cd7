//===- tests/BallArrangementGameTest.cpp - BAG model tests ---------------===//

#include "core/BallArrangementGame.h"

#include "Oracles.h"

#include <gtest/gtest.h>

using namespace scg;

namespace {

SuperCayleyGraph ms22() {
  return SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2);
}

} // namespace

TEST(BallArrangementGame, BallColors) {
  SuperCayleyGraph Net = ms22(); // k = 5, two boxes of two balls.
  BallArrangementGame Game(Net, Permutation::identity(5));
  EXPECT_EQ(Game.ballColor(1), 0u); // the outside ball.
  EXPECT_EQ(Game.ballColor(2), 1u);
  EXPECT_EQ(Game.ballColor(3), 1u);
  EXPECT_EQ(Game.ballColor(4), 2u);
  EXPECT_EQ(Game.ballColor(5), 2u);
}

TEST(BallArrangementGame, SolvedAtIdentity) {
  SuperCayleyGraph Net = ms22();
  BallArrangementGame Game(Net, Permutation::identity(5));
  EXPECT_TRUE(Game.isSolved());
  EXPECT_EQ(Game.numMisplacedBalls(), 0u);
}

TEST(BallArrangementGame, MisplacedCount) {
  SuperCayleyGraph Net = ms22();
  // 4 and 5 (color 2) sit in box 1; 2 and 3 (color 1) in box 2.
  BallArrangementGame Game(Net, Permutation::parseOneBased("1 4 5 2 3"));
  EXPECT_FALSE(Game.isSolved());
  EXPECT_EQ(Game.numMisplacedBalls(), 4u);
}

TEST(BallArrangementGame, PlayFollowsLinks) {
  SuperCayleyGraph Net = ms22();
  BallArrangementGame Game(Net, Permutation::identity(5));
  GenIndex T2 = *oracle::findByName(Net.generators(), "T2");
  Game.play(T2); // exchange outside ball with first ball of box 1.
  EXPECT_EQ(Game.configuration().str(), "2 1 3 4 5");
  EXPECT_EQ(Game.history().size(), 1u);
  EXPECT_FALSE(Game.isSolved());
}

TEST(BallArrangementGame, PlaySolvesSimpleInstance) {
  SuperCayleyGraph Net = ms22();
  // One move from solved: boxes exchanged.
  BallArrangementGame Game(Net, Permutation::parseOneBased("1 4 5 2 3"));
  GenIndex S2 = *oracle::findByName(Net.generators(), "S2");
  Game.play(S2);
  EXPECT_TRUE(Game.isSolved());
}

TEST(BallArrangementGame, UndoRestoresConfiguration) {
  SuperCayleyGraph Net = ms22();
  BallArrangementGame Game(Net, Permutation::identity(5));
  Permutation Before = Game.configuration();
  Game.play(*oracle::findByName(Net.generators(), "T3"));
  Game.play(*oracle::findByName(Net.generators(), "S2"));
  EXPECT_TRUE(Game.undo());
  EXPECT_TRUE(Game.undo());
  EXPECT_EQ(Game.configuration(), Before);
  EXPECT_FALSE(Game.undo()); // nothing left.
}

TEST(BallArrangementGame, RenderShowsBoxes) {
  SuperCayleyGraph Net = ms22();
  BallArrangementGame Game(Net, Permutation::parseOneBased("1 4 5 2 3"));
  EXPECT_EQ(Game.render(), "1 | 4 5 | 2 3");
}

TEST(BallArrangementGame, MovesMatchCayleyNeighbors) {
  SuperCayleyGraph Net =
      SuperCayleyGraph::create(NetworkKind::CompleteRotationIS, 3, 2);
  Permutation Start = Permutation::parseOneBased("4 2 6 1 7 3 5");
  BallArrangementGame Game(Net, Start);
  for (GenIndex G = 0; G != Net.degree(); ++G) {
    BallArrangementGame Fresh(Net, Start);
    Fresh.play(G);
    EXPECT_EQ(Fresh.configuration(), Net.neighbor(Start, G));
  }
}
