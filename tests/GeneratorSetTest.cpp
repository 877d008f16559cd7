//===- tests/GeneratorSetTest.cpp - Generator set semantics --------------===//

#include "core/GeneratorSet.h"

#include "Oracles.h"

#include <gtest/gtest.h>

using namespace scg;

TEST(GeneratorSet, AddDeduplicatesSameActionAndName) {
  GeneratorSet Set;
  GenIndex A = Set.add(makeTransposition(5, 3));
  GenIndex B = Set.add(makeTransposition(5, 3));
  EXPECT_EQ(A, B);
  EXPECT_EQ(Set.size(), 1u);
}

TEST(GeneratorSet, ParallelLinksKeepDistinctNames) {
  // I_2 and I_2^-1 share the action but are distinct physical links (the
  // paper counts degree as the number of generators in the definition).
  GeneratorSet Set;
  GenIndex Ins = Set.add(makeInsertion(5, 2));
  GenIndex Sel = Set.add(makeSelection(5, 2));
  EXPECT_NE(Ins, Sel);
  EXPECT_EQ(Set.size(), 2u);
  EXPECT_EQ(Set[Ins].Sigma, Set[Sel].Sigma);
}

TEST(GeneratorSet, RotationNormalizationDeduplicates) {
  // In RS(2,n), R^-1 normalizes to R: same action, same name.
  GeneratorSet Set;
  GenIndex A = Set.add(makeRotation(5, 2, 1));
  GenIndex B = Set.add(makeRotation(5, 2, -1));
  EXPECT_EQ(A, B);
}

TEST(GeneratorSet, FindByName) {
  GeneratorSet Set;
  Set.add(makeTransposition(5, 2));
  Set.add(makeTransposition(5, 3));
  ASSERT_TRUE(oracle::findByName(Set, "T3"));
  EXPECT_EQ(*oracle::findByName(Set, "T3"), 1u);
  EXPECT_FALSE(oracle::findByName(Set, "T9"));
}

TEST(GeneratorSet, FindByActionPrefersEarliest) {
  GeneratorSet Set;
  GenIndex Ins = Set.add(makeInsertion(5, 2));
  Set.add(makeSelection(5, 2));
  auto Found = Set.findByAction(makeInsertion(5, 2).Sigma);
  ASSERT_TRUE(Found);
  EXPECT_EQ(*Found, Ins);
}

TEST(GeneratorSet, FindLinkMatchesNameFirst) {
  GeneratorSet Set;
  Set.add(makeInsertion(5, 2));
  GenIndex Sel = Set.add(makeSelection(5, 2));
  auto Found = Set.findLink(makeSelection(5, 2));
  ASSERT_TRUE(Found);
  EXPECT_EQ(*Found, Sel);
}

TEST(GeneratorSet, FindLinkFallsBackToAction) {
  GeneratorSet Set;
  GenIndex Ins = Set.add(makeInsertion(5, 2));
  // No "I2'" in the set: the selection request resolves to the involution.
  auto Found = Set.findLink(makeSelection(5, 2));
  ASSERT_TRUE(Found);
  EXPECT_EQ(*Found, Ins);
}

TEST(GeneratorSet, InverseOf) {
  GeneratorSet Set;
  GenIndex Ins = Set.add(makeInsertion(5, 4));
  EXPECT_FALSE(Set.inverseOf(Ins));
  GenIndex Sel = Set.add(makeSelection(5, 4));
  ASSERT_TRUE(Set.inverseOf(Ins));
  EXPECT_EQ(*Set.inverseOf(Ins), Sel);
  EXPECT_EQ(*Set.inverseOf(Sel), Ins);
}

TEST(GeneratorSet, SymmetryDetection) {
  GeneratorSet Sym;
  Sym.add(makeTransposition(5, 2));
  Sym.add(makeTransposition(5, 4));
  EXPECT_TRUE(Sym.isSymmetric()); // involutions are self-inverse.

  GeneratorSet Asym;
  Asym.add(makeInsertion(5, 4));
  EXPECT_FALSE(Asym.isSymmetric());
}

TEST(GeneratorSet, NumSymbols) {
  GeneratorSet Set;
  EXPECT_EQ(Set.numSymbols(), 0u);
  Set.add(makeTransposition(6, 2));
  EXPECT_EQ(Set.numSymbols(), 6u);
}
