//===- tests/SdcEmulationTest.cpp - Theorems 1-3 tests -------------------===//

#include "emulation/SdcEmulation.h"

#include "emulation/DimensionMap.h"

#include "Oracles.h"

#include <gtest/gtest.h>

using namespace scg;

namespace {

/// Every dimension path must realize T_j exactly.
void checkPathsRealizeDimensions(const SuperCayleyGraph &Net) {
  for (unsigned J = 2; J <= Net.numSymbols(); ++J) {
    GeneratorPath Path = starDimensionPath(Net, J);
    EXPECT_EQ(Path.netEffect(Net),
              makeTransposition(Net.numSymbols(), J).Sigma)
        << Net.name() << " dim " << J;
  }
}

} // namespace

TEST(DimensionMap, DecomposeCompose) {
  for (unsigned N = 1; N <= 4; ++N)
    for (unsigned J = 2; J <= 4 * N + 1; ++J) {
      DimensionParts P = decomposeDimension(J, N);
      EXPECT_LT(P.J0, N);
      EXPECT_EQ(oracle::composeDimension(P, N), J);
    }
}

TEST(DimensionMap, PaperExample) {
  // Figure 1 caption: n = 3, j0 = (j-2) mod 3, j1 = floor((j-2)/3).
  DimensionParts P = decomposeDimension(7, 3);
  EXPECT_EQ(P.J0, 2u);
  EXPECT_EQ(P.J1, 1u);
}

TEST(SdcEmulation, Theorem1MacroStarSlowdownIs3) {
  for (auto [L, N] : {std::pair{2u, 2u}, {2u, 3u}, {3u, 2u}, {4u, 3u},
                      {5u, 3u}, {3u, 4u}, {6u, 2u}}) {
    SuperCayleyGraph Ms = SuperCayleyGraph::create(NetworkKind::MacroStar, L, N);
    checkPathsRealizeDimensions(Ms);
    SdcEmulationReport Report = analyzeSdcEmulation(Ms);
    EXPECT_EQ(Report.Slowdown, 3u) << Ms.name();
    EXPECT_EQ(Report.Slowdown, paperSdcSlowdownBound(Ms));
    EXPECT_EQ(Report.DirectDimensions, N) << Ms.name();
  }
}

TEST(SdcEmulation, Theorem1CompleteRotationStarSlowdownIs3) {
  for (auto [L, N] : {std::pair{2u, 2u}, {3u, 2u}, {4u, 3u}, {5u, 3u}}) {
    SuperCayleyGraph Net =
        SuperCayleyGraph::create(NetworkKind::CompleteRotationStar, L, N);
    checkPathsRealizeDimensions(Net);
    EXPECT_EQ(analyzeSdcEmulation(Net).Slowdown, 3u) << Net.name();
  }
}

TEST(SdcEmulation, Theorem2InsertionSelectionSlowdownIs2) {
  for (unsigned K = 3; K <= 9; ++K) {
    SuperCayleyGraph Is = SuperCayleyGraph::insertionSelection(K);
    checkPathsRealizeDimensions(Is);
    SdcEmulationReport Report = analyzeSdcEmulation(Is);
    EXPECT_EQ(Report.Slowdown, 2u) << Is.name();
    EXPECT_EQ(Report.DirectDimensions, 1u); // only T_2 = I_2.
  }
}

TEST(SdcEmulation, Theorem3MisSlowdownIs4) {
  for (auto [L, N] : {std::pair{2u, 2u}, {3u, 2u}, {4u, 3u}, {2u, 4u}}) {
    for (NetworkKind Kind :
         {NetworkKind::MacroIS, NetworkKind::CompleteRotationIS}) {
      SuperCayleyGraph Net = SuperCayleyGraph::create(Kind, L, N);
      checkPathsRealizeDimensions(Net);
      EXPECT_EQ(analyzeSdcEmulation(Net).Slowdown, 4u) << Net.name();
      EXPECT_EQ(paperSdcSlowdownBound(Net), 4u);
    }
  }
}

TEST(SdcEmulation, StarEmulatesItselfDirectly) {
  SuperCayleyGraph Star = SuperCayleyGraph::star(6);
  checkPathsRealizeDimensions(Star);
  EXPECT_EQ(analyzeSdcEmulation(Star).Slowdown, 1u);
}

TEST(SdcEmulation, TranspositionNetworkIsDirect) {
  SuperCayleyGraph Tn = SuperCayleyGraph::transpositionNetwork(6);
  checkPathsRealizeDimensions(Tn);
  EXPECT_EQ(analyzeSdcEmulation(Tn).Slowdown, 1u);
}

TEST(SdcEmulation, RotationStarPathsGrowWithL) {
  // Non-complete RS expands R^{j1} into single rotations; the paper claims
  // no constant bound and indeed the farthest box costs floor(l/2) hops
  // each way.
  SuperCayleyGraph Rs = SuperCayleyGraph::create(NetworkKind::RotationStar, 6, 2);
  checkPathsRealizeDimensions(Rs);
  EXPECT_EQ(analyzeSdcEmulation(Rs).Slowdown, 1u + 2 * 3) << Rs.name();
}

TEST(SdcEmulation, RotationIsPathsUseSingleRotations) {
  SuperCayleyGraph Ris = SuperCayleyGraph::create(NetworkKind::RotationIS, 5, 2);
  checkPathsRealizeDimensions(Ris);
  // Farthest box: 2 hops there + 2 back, plus a 2-hop nucleus.
  EXPECT_EQ(analyzeSdcEmulation(Ris).Slowdown, 2u + 2 + 2);
}

TEST(SdcEmulation, Theorem1ExplicitPathShape) {
  // The Theorem 1 path for j with j1 != 0 is S_{j1+1} T_{j0+2} S_{j1+1}.
  SuperCayleyGraph Ms = SuperCayleyGraph::create(NetworkKind::MacroStar, 4, 3);
  GeneratorPath Path = starDimensionPath(Ms, 7); // j0 = 2, j1 = 1.
  EXPECT_EQ(Path.str(Ms), "S2 T4 S2");
  GeneratorPath Direct = starDimensionPath(Ms, 4); // j1 = 0.
  EXPECT_EQ(Direct.str(Ms), "T4");
}

TEST(SdcEmulation, Theorem1CompleteRsPathShape) {
  // complete-RS uses R^{-j1} T_{j0+2} R^{j1}; with l = 4, R^-1 = R^3.
  SuperCayleyGraph Net =
      SuperCayleyGraph::create(NetworkKind::CompleteRotationStar, 4, 3);
  GeneratorPath Path = starDimensionPath(Net, 7); // j0 = 2, j1 = 1.
  EXPECT_EQ(Path.str(Net), "R^3 T4 R");
  // For j1 = 2, R^-2 = R^2 is an involution: the same link both ways.
  GeneratorPath Mid = starDimensionPath(Net, 10); // j0 = 2, j1 = 2.
  EXPECT_EQ(Mid.str(Net), "R^2 T4 R^2");
}

TEST(SdcEmulation, Theorem5NucleusSubstitution) {
  // MIS replaces T_{j0+2} with I_{j0+2} I_{j0+1}^-1.
  SuperCayleyGraph Mis = SuperCayleyGraph::create(NetworkKind::MacroIS, 3, 3);
  GeneratorPath Path = starDimensionPath(Mis, 7); // j0 = 2 -> I4 I3'.
  EXPECT_EQ(Path.str(Mis), "S2 I4 I3' S2");
  GeneratorPath Short = starDimensionPath(Mis, 5); // j0 = 0 -> I2 alone.
  EXPECT_EQ(Short.str(Mis), "S2 I2 S2");
}

TEST(SdcEmulation, SupportsStarEmulationClassification) {
  EXPECT_TRUE(supportsStarEmulation(SuperCayleyGraph::star(4)));
  EXPECT_TRUE(supportsStarEmulation(SuperCayleyGraph::insertionSelection(4)));
  EXPECT_FALSE(supportsStarEmulation(
      SuperCayleyGraph::create(NetworkKind::MacroRotator, 2, 2)));
  EXPECT_FALSE(supportsStarEmulation(SuperCayleyGraph::bubbleSort(4)));
}
