//===- tests/SdcProgramTest.cpp - Algorithm-level emulation tests --------===//

#include "SdcProgram.h"

#include "emulation/SdcEmulation.h"

#include <gtest/gtest.h>

using namespace scg;

TEST(SdcProgram, EffectComposesTranspositions) {
  SdcStarProgram Program{{2, 3, 2}};
  Permutation Effect = sdcProgramEffect(4, Program);
  // T2 T3 T2 = T_{2,3}: swap of positions 2 and 3.
  EXPECT_EQ(Effect, makePairTransposition(4, 2, 3).Sigma);
}

TEST(SdcProgram, EmptyProgramIsIdentity) {
  EXPECT_TRUE(sdcProgramEffect(5, SdcStarProgram{}).isIdentity());
}

TEST(SdcProgram, RandomProgramsAreInRange) {
  SdcStarProgram Program = makeRandomSdcProgram(7, 50, 123);
  ASSERT_EQ(Program.Dims.size(), 50u);
  for (unsigned Dim : Program.Dims) {
    EXPECT_GE(Dim, 2u);
    EXPECT_LE(Dim, 7u);
  }
}

TEST(SdcProgram, TranslationPreservesEffect) {
  for (NetworkKind Kind :
       {NetworkKind::MacroStar, NetworkKind::CompleteRotationStar,
        NetworkKind::MacroIS}) {
    SuperCayleyGraph Host = SuperCayleyGraph::create(Kind, 3, 2);
    SdcStarProgram Program = makeRandomSdcProgram(7, 30, 7);
    std::vector<GenIndex> Seq = translateSdcProgram(Host, Program);
    GeneratorPath Path{Seq};
    EXPECT_EQ(Path.netEffect(Host), sdcProgramEffect(7, Program))
        << Host.name();
  }
}

TEST(SdcProgram, StarRunsItselfLockStep) {
  ExplicitScg Star(SuperCayleyGraph::star(5));
  SdcStarProgram Program = makeRandomSdcProgram(5, 12, 99);
  SdcProgramRun Run = runSdcProgram(Star, Program);
  EXPECT_TRUE(Run.LockStep);
  EXPECT_TRUE(Run.PlacementOk);
  EXPECT_EQ(Run.HostSteps, Run.StarSteps);
  EXPECT_DOUBLE_EQ(Run.Slowdown, 1.0);
}

TEST(SdcProgram, Theorem1SlowdownOnMacroStar) {
  ExplicitScg Host(SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2));
  SdcStarProgram Program = makeRandomSdcProgram(5, 20, 4);
  SdcProgramRun Run = runSdcProgram(Host, Program);
  EXPECT_TRUE(Run.LockStep);
  EXPECT_TRUE(Run.PlacementOk);
  EXPECT_LE(Run.Slowdown, 3.0); // Theorem 1.
  EXPECT_GE(Run.Slowdown, 1.0);
}

TEST(SdcProgram, Theorem2SlowdownOnIs) {
  ExplicitScg Host(SuperCayleyGraph::insertionSelection(5));
  SdcStarProgram Program = makeRandomSdcProgram(5, 20, 5);
  SdcProgramRun Run = runSdcProgram(Host, Program);
  EXPECT_TRUE(Run.LockStep);
  EXPECT_TRUE(Run.PlacementOk);
  EXPECT_LE(Run.Slowdown, 2.0); // Theorem 2.
}

TEST(SdcProgram, Theorem3SlowdownOnMis) {
  ExplicitScg Host(SuperCayleyGraph::create(NetworkKind::MacroIS, 2, 2));
  SdcStarProgram Program = makeRandomSdcProgram(5, 20, 6);
  SdcProgramRun Run = runSdcProgram(Host, Program);
  EXPECT_TRUE(Run.LockStep);
  EXPECT_TRUE(Run.PlacementOk);
  EXPECT_LE(Run.Slowdown, 4.0); // Theorem 3.
}

TEST(SdcProgram, SlowdownIsExactPathAverage) {
  // HostSteps equals the sum of per-dimension path lengths exactly.
  SuperCayleyGraph Net = SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2);
  ExplicitScg Host(Net);
  SdcStarProgram Program{{2, 4, 5, 3}};
  uint64_t Expected = 0;
  for (unsigned Dim : Program.Dims)
    Expected += starDimensionPath(Net, Dim).length();
  SdcProgramRun Run = runSdcProgram(Host, Program);
  EXPECT_EQ(Run.HostSteps, Expected);
}
