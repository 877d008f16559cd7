//===- tests/SuperCayleyGraphTest.cpp - Network descriptor tests ---------===//

#include "core/SuperCayleyGraph.h"

#include "perm/Lehmer.h"

#include <gtest/gtest.h>

using namespace scg;

TEST(SuperCayleyGraph, StarDegreeAndSize) {
  SuperCayleyGraph Star = SuperCayleyGraph::star(7);
  EXPECT_EQ(Star.degree(), 6u);
  EXPECT_EQ(Star.numNodes(), factorial(7));
  EXPECT_EQ(Star.numSymbols(), 7u);
  EXPECT_TRUE(Star.isUndirected());
  EXPECT_TRUE(Star.generators().isSymmetric());
  EXPECT_EQ(Star.name(), "star(7)");
}

TEST(SuperCayleyGraph, BubbleSortDegree) {
  SuperCayleyGraph B = SuperCayleyGraph::bubbleSort(6);
  EXPECT_EQ(B.degree(), 5u);
  EXPECT_TRUE(B.generators().isSymmetric());
}

TEST(SuperCayleyGraph, TranspositionNetworkDegree) {
  // k-TN has degree k(k-1)/2 [12].
  SuperCayleyGraph Tn = SuperCayleyGraph::transpositionNetwork(6);
  EXPECT_EQ(Tn.degree(), 15u);
  EXPECT_TRUE(Tn.generators().isSymmetric());
}

TEST(SuperCayleyGraph, InsertionSelectionDegree) {
  // IS(k) is defined by 2(k-1) generators (I_2..I_k and inverses).
  SuperCayleyGraph Is = SuperCayleyGraph::insertionSelection(6);
  EXPECT_EQ(Is.degree(), 10u);
  EXPECT_TRUE(Is.generators().isSymmetric());
  EXPECT_EQ(Is.name(), "IS(6)");
}

TEST(SuperCayleyGraph, MacroStarStructure) {
  SuperCayleyGraph Ms = SuperCayleyGraph::create(NetworkKind::MacroStar, 4, 3);
  EXPECT_EQ(Ms.numSymbols(), 13u);
  EXPECT_EQ(Ms.degree(), 3u + 3u); // n transpositions + l-1 swaps.
  EXPECT_EQ(Ms.numBoxes(), 4u);
  EXPECT_EQ(Ms.ballsPerBox(), 3u);
  EXPECT_TRUE(Ms.isUndirected());
  EXPECT_EQ(Ms.name(), "MS(4,3)");
}

TEST(SuperCayleyGraph, RotationStarDegrees) {
  // RS has R and R^-1 (merged when l = 2).
  EXPECT_EQ(SuperCayleyGraph::create(NetworkKind::RotationStar, 2, 3).degree(),
            3u + 1u);
  EXPECT_EQ(SuperCayleyGraph::create(NetworkKind::RotationStar, 4, 3).degree(),
            3u + 2u);
}

TEST(SuperCayleyGraph, CompleteRotationStarDegree) {
  // complete-RS has all l-1 rotations.
  SuperCayleyGraph Net =
      SuperCayleyGraph::create(NetworkKind::CompleteRotationStar, 4, 3);
  EXPECT_EQ(Net.degree(), 3u + 3u);
  EXPECT_TRUE(Net.generators().isSymmetric());
  EXPECT_EQ(Net.name(), "complete-RS(4,3)");
}

TEST(SuperCayleyGraph, RotatorClassesAreDirected) {
  for (NetworkKind Kind :
       {NetworkKind::MacroRotator, NetworkKind::RotationRotator,
        NetworkKind::CompleteRotationRotator}) {
    SuperCayleyGraph Net = SuperCayleyGraph::create(Kind, 3, 2);
    EXPECT_FALSE(Net.isUndirected()) << Net.name();
    EXPECT_FALSE(Net.generators().isSymmetric()) << Net.name();
  }
}

TEST(SuperCayleyGraph, MacroRotatorDegree) {
  // MR(l,n): n insertions + l-1 swaps.
  SuperCayleyGraph Mr =
      SuperCayleyGraph::create(NetworkKind::MacroRotator, 3, 2);
  EXPECT_EQ(Mr.degree(), 2u + 2u);
}

TEST(SuperCayleyGraph, MacroIsDegree) {
  // MIS(l,n): 2n nucleus links + l-1 swaps.
  SuperCayleyGraph Mis = SuperCayleyGraph::create(NetworkKind::MacroIS, 3, 2);
  EXPECT_EQ(Mis.degree(), 4u + 2u);
  EXPECT_TRUE(Mis.generators().isSymmetric());
}

TEST(SuperCayleyGraph, AllTenClassesConstruct) {
  for (NetworkKind Kind :
       {NetworkKind::MacroStar, NetworkKind::RotationStar,
        NetworkKind::CompleteRotationStar, NetworkKind::MacroRotator,
        NetworkKind::RotationRotator, NetworkKind::CompleteRotationRotator,
        NetworkKind::MacroIS, NetworkKind::RotationIS,
        NetworkKind::CompleteRotationIS}) {
    SuperCayleyGraph Net = SuperCayleyGraph::create(Kind, 3, 2);
    EXPECT_EQ(Net.numSymbols(), 7u) << Net.name();
    EXPECT_EQ(Net.numNodes(), factorial(7)) << Net.name();
    EXPECT_GE(Net.degree(), 3u) << Net.name();
  }
}

TEST(SuperCayleyGraph, NeighborsFollowGenerators) {
  SuperCayleyGraph Ms = SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2);
  Permutation U = Permutation::parseOneBased("3 1 4 5 2");
  ASSERT_EQ(Ms.generators().size(), Ms.degree());
  for (GenIndex G = 0; G != Ms.degree(); ++G)
    EXPECT_EQ(Ms.neighbor(U, G), U.compose(Ms.generators()[G].Sigma));
}

TEST(SuperCayleyGraph, NeighborIsInvolutiveForUndirected) {
  SuperCayleyGraph Ms = SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2);
  Permutation U = Permutation::identity(5);
  for (GenIndex G = 0; G != Ms.degree(); ++G) {
    Permutation V = Ms.neighbor(U, G);
    auto Inv = Ms.generators().inverseOf(G);
    ASSERT_TRUE(Inv);
    EXPECT_EQ(Ms.neighbor(V, *Inv), U);
  }
}

TEST(SuperCayleyGraph, KindNames) {
  EXPECT_EQ(networkKindName(NetworkKind::CompleteRotationIS),
            "complete-RIS");
  EXPECT_EQ(networkKindName(NetworkKind::RotationRotator), "RR");
  EXPECT_EQ(networkKindName(NetworkKind::InsertionSelection), "IS");
}
