//===- tests/MnbStripedTest.cpp - Multi-tree MNB tests -------------------===//

#include "comm/Mnb.h"

#include <gtest/gtest.h>

#include <stdexcept>

using namespace scg;

namespace {

std::vector<BroadcastTree> rotatedTrees(const ExplicitScg &Net,
                                        unsigned Count) {
  std::vector<BroadcastTree> Trees;
  for (unsigned T = 0; T != Count; ++T)
    Trees.emplace_back(Net, T);
  return Trees;
}

} // namespace

TEST(MnbStriped, SingleTreeMatchesPlainMnb) {
  // complete-RS(3,2) is order-sensitive: transmitting node-major instead of
  // generator-major finishes it in 1336 steps instead of 1335.
  for (auto Scg :
       {SuperCayleyGraph::star(5),
        SuperCayleyGraph::create(NetworkKind::CompleteRotationStar, 3, 2)}) {
    ExplicitScg Net(Scg);
    BroadcastTree Tree(Net);
    MnbResult Plain = simulateMnb(Net, Tree);
    MnbResult Striped = simulateMnbStriped(Net, rotatedTrees(Net, 1));
    EXPECT_EQ(Plain.Steps, Striped.Steps) << Scg.name();
    EXPECT_EQ(Plain.Deliveries, Striped.Deliveries) << Scg.name();
  }
}

TEST(MnbStriped, EmptyTreesThrow) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  EXPECT_THROW(simulateMnbStriped(Net, {}), std::invalid_argument);
}

TEST(MnbStriped, DeliversEverythingWithManyTrees) {
  ExplicitScg Net(SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2));
  MnbResult R = simulateMnbStriped(Net, rotatedTrees(Net, Net.degree()));
  EXPECT_EQ(R.Deliveries, Net.numNodes() * (Net.numNodes() - 1));
  EXPECT_GE(R.Steps, R.LowerBound);
}

TEST(MnbStriped, StripingDoesNotHurtMuch) {
  // Striping should be at least as good as single-tree within a small
  // tolerance (it strictly helps when the single tree is label-skewed).
  for (auto Scg : {SuperCayleyGraph::star(5),
                   SuperCayleyGraph::insertionSelection(5)}) {
    ExplicitScg Net(Scg);
    BroadcastTree Tree(Net);
    MnbResult Plain = simulateMnb(Net, Tree);
    MnbResult Striped =
        simulateMnbStriped(Net, rotatedTrees(Net, Net.degree()));
    EXPECT_LE(Striped.Steps, Plain.Steps + Plain.Steps / 4 + 2)
        << Scg.name();
  }
}

TEST(MnbStriped, RotatedTreesDiffer) {
  ExplicitScg Net(SuperCayleyGraph::star(5));
  BroadcastTree A(Net, 0), B(Net, 1);
  bool Different = false;
  for (NodeId W = 0; W != Net.numNodes() && !Different; ++W)
    Different = (A.children(W) != B.children(W));
  EXPECT_TRUE(Different);
  // Both are complete spanning trees regardless.
  EXPECT_EQ(A.numEdges(), Net.numNodes() - 1);
  EXPECT_EQ(B.numEdges(), Net.numNodes() - 1);
}
