//===- tests/GeneratorTest.cpp - Generator definition tests --------------===//
//
// Checks every generator against the verbatim formulas of Section 2.2:
//   I_i(U)    = u_{2:i} u_1 u_{i+1:k}          (Definition 1)
//   I_i^-1(U) = u_i u_{1:i-1} u_{i+1:k}        (Definition 2)
//   R^i(U)    = u_1 u_{k-in+1:k} u_{2:k-in}    (Definition 3)
//
//===----------------------------------------------------------------------===//

#include "core/Generator.h"

#include "Oracles.h"

#include <gtest/gtest.h>

using namespace scg;

namespace {

/// The paper's example labels: U = u_1 ... u_k with u_p = p (so the label
/// IS the identity and applying a generator reveals its action directly).
Permutation ident(unsigned K) { return Permutation::identity(K); }

std::string applyToIdentity(const Generator &G, unsigned K) {
  return ident(K).applyGenerator(G.Sigma).str();
}

} // namespace

TEST(Generator, TranspositionSwapsFirstAndIth) {
  EXPECT_EQ(applyToIdentity(makeTransposition(5, 3), 5), "3 2 1 4 5");
  EXPECT_EQ(applyToIdentity(makeTransposition(5, 5), 5), "5 2 3 4 1");
  EXPECT_EQ(makeTransposition(5, 3).Name, "T3");
  EXPECT_EQ(makeTransposition(5, 3).Kind, GeneratorKind::Nucleus);
}

TEST(Generator, TranspositionIsInvolution) {
  for (unsigned I = 2; I <= 6; ++I)
    EXPECT_TRUE(oracle::isInvolution(makeTransposition(6, I)));
}

TEST(Generator, PairTransposition) {
  EXPECT_EQ(applyToIdentity(makePairTransposition(5, 2, 4), 5), "1 4 3 2 5");
  EXPECT_EQ(makePairTransposition(5, 2, 4).Name, "T2,4");
  EXPECT_TRUE(oracle::isInvolution(makePairTransposition(6, 3, 6)));
}

TEST(Generator, AdjacentTransposition) {
  EXPECT_EQ(applyToIdentity(makeAdjacentTransposition(4, 2), 4), "1 3 2 4");
}

TEST(Generator, InsertionMatchesDefinitionOne) {
  // I_i cyclically shifts the leftmost i symbols left by one:
  // I_4(1 2 3 4 5) = 2 3 4 1 5.
  EXPECT_EQ(applyToIdentity(makeInsertion(5, 4), 5), "2 3 4 1 5");
  EXPECT_EQ(applyToIdentity(makeInsertion(5, 2), 5), "2 1 3 4 5");
  EXPECT_EQ(applyToIdentity(makeInsertion(5, 5), 5), "2 3 4 5 1");
}

TEST(Generator, SelectionMatchesDefinitionTwo) {
  // I_i^-1 cyclically shifts the leftmost i symbols right by one:
  // I_4^-1(1 2 3 4 5) = 4 1 2 3 5.
  EXPECT_EQ(applyToIdentity(makeSelection(5, 4), 5), "4 1 2 3 5");
  EXPECT_EQ(applyToIdentity(makeSelection(5, 2), 5), "2 1 3 4 5");
}

TEST(Generator, SelectionInvertsInsertion) {
  for (unsigned K = 2; K <= 7; ++K)
    for (unsigned I = 2; I <= K; ++I) {
      Permutation Product =
          makeInsertion(K, I).Sigma.compose(makeSelection(K, I).Sigma);
      EXPECT_TRUE(Product.isIdentity()) << "I" << I << " on k=" << K;
    }
}

TEST(Generator, InsertionTwoIsAnInvolution) {
  EXPECT_TRUE(oracle::isInvolution(makeInsertion(6, 2)));
  EXPECT_EQ(makeInsertion(6, 2).Sigma, makeSelection(6, 2).Sigma);
  EXPECT_FALSE(oracle::isInvolution(makeInsertion(6, 3)));
}

TEST(Generator, SwapExchangesSuperSymbols) {
  // k = 7 = 3*2 + 1, boxes of n = 2: S_3 swaps positions 2-3 with 6-7.
  EXPECT_EQ(applyToIdentity(makeSwap(7, 2, 3), 7), "1 6 7 4 5 2 3");
  EXPECT_EQ(makeSwap(7, 2, 3).Kind, GeneratorKind::Super);
  EXPECT_TRUE(oracle::isInvolution(makeSwap(7, 2, 3)));
}

TEST(Generator, RotationMatchesDefinitionThree) {
  // k = 7, n = 2, l = 3. R^1 shifts the rightmost 6 symbols right by 2:
  // 1 | 2 3 | 4 5 | 6 7  ->  1 | 6 7 | 2 3 | 4 5.
  EXPECT_EQ(applyToIdentity(makeRotation(7, 2, 1), 7), "1 6 7 2 3 4 5");
  // R^2 shifts by 4: 1 | 4 5 | 6 7 | 2 3.
  EXPECT_EQ(applyToIdentity(makeRotation(7, 2, 2), 7), "1 4 5 6 7 2 3");
}

TEST(Generator, RotationExponentsNormalizeModL) {
  EXPECT_EQ(makeRotation(7, 2, -1).Sigma, makeRotation(7, 2, 2).Sigma);
  EXPECT_EQ(makeRotation(7, 2, 4).Sigma, makeRotation(7, 2, 1).Sigma);
  EXPECT_EQ(makeRotation(7, 2, 1).Name, "R");
  EXPECT_EQ(makeRotation(7, 2, 2).Name, "R^2");
}

TEST(Generator, RotationInverseComposesToIdentity) {
  for (int I = 1; I <= 3; ++I) {
    Permutation Product = makeRotation(9, 2, I).Sigma.compose(
        makeRotation(9, 2, -I).Sigma);
    EXPECT_TRUE(Product.isIdentity());
  }
}

TEST(Generator, RotationIsRepeatedR) {
  // R^i = R composed i times (Section 2.2).
  Permutation R = makeRotation(9, 2, 1).Sigma;
  Permutation Acc = R;
  for (int I = 2; I <= 3; ++I) {
    Acc = Acc.compose(R);
    EXPECT_EQ(Acc, makeRotation(9, 2, I).Sigma) << "R^" << I;
  }
}

TEST(Generator, BringBoxMovesBoxToFront) {
  // After B_i, the i-th super-symbol occupies positions 2..n+1.
  for (unsigned Box = 2; Box <= 4; ++Box) {
    Permutation Swapped = ident(9).applyGenerator(
        oracle::makeBringBoxSwap(9, 2, Box).Sigma);
    Permutation Rotated = ident(9).applyGenerator(
        oracle::makeBringBoxRotation(9, 2, Box).Sigma);
    for (unsigned Q = 0; Q != 2; ++Q) {
      uint8_t Expected = (Box - 1) * 2 + 1 + Q; // box contents (0-based).
      EXPECT_EQ(Swapped[1 + Q], Expected) << "S bring box " << Box;
      EXPECT_EQ(Rotated[1 + Q], Expected) << "R bring box " << Box;
    }
  }
}

TEST(Generator, InvertedNameConvention) {
  Generator G = makeInsertion(5, 4);
  Generator Inv = oracle::inverted(G);
  EXPECT_EQ(Inv.Name, "I4'");
  EXPECT_EQ(Inv.Sigma, makeSelection(5, 4).Sigma);
  EXPECT_EQ(oracle::inverted(Inv).Name, "I4");
}
