//===- tests/RenderingTest.cpp - Output rendering coverage ---------------===//
//
// Pins the human-facing renderings: path strings, BAG box views, the
// Figure 1 grid, and path tracing -- the outputs the examples and benches
// present to users.
//
//===----------------------------------------------------------------------===//

#include "emulation/FigureOne.h"
#include "routing/Path.h"

#include "Oracles.h"

#include <gtest/gtest.h>

using namespace scg;

TEST(Rendering, PathStringUsesGeneratorNames) {
  SuperCayleyGraph Ms = SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2);
  const GeneratorSet &Gens = Ms.generators();
  GeneratorPath Path(std::vector<GenIndex>{*oracle::findByName(Gens, "S2"),
                                           *oracle::findByName(Gens, "T3"),
                                           *oracle::findByName(Gens, "S2")});
  EXPECT_EQ(Path.str(Ms), "S2 T3 S2");
  EXPECT_EQ(GeneratorPath().str(Ms), "");
}

TEST(Rendering, TraceListsEveryVisitedNode) {
  SuperCayleyGraph Ms = SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2);
  Permutation Start = Permutation::identity(5);
  GeneratorPath Path(std::vector<GenIndex>{0, 1, 0});
  std::vector<Permutation> Trace = oracle::trace(Path, Ms, Start);
  ASSERT_EQ(Trace.size(), 4u);
  EXPECT_EQ(Trace.front(), Start);
  EXPECT_EQ(Trace.back(), Path.endpoint(Ms, Start));
  for (unsigned I = 0; I + 1 != Trace.size(); ++I)
    EXPECT_EQ(Trace[I + 1], Ms.neighbor(Trace[I], Path.hops()[I]));
}

TEST(Rendering, NetEffectOfEmptyPathIsIdentity) {
  SuperCayleyGraph Star = SuperCayleyGraph::star(4);
  EXPECT_TRUE(GeneratorPath().netEffect(Star).isIdentity());
}

TEST(Rendering, BoxViewSeparatesBoxes) {
  Permutation P = Permutation::parseOneBased("7 2 3 4 5 6 1");
  EXPECT_EQ(P.strBoxes(3), "7 | 2 3 4 | 5 6 1");
  EXPECT_EQ(P.strBoxes(2), "7 | 2 3 | 4 5 | 6 1");
}

TEST(Rendering, ScheduleGridHasOneRowPerStep) {
  SuperCayleyGraph Ms = SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2);
  AllPortSchedule Schedule = buildAllPortSchedule(Ms);
  std::string Grid = renderSchedule(Ms, Schedule);
  // Header + rule + one row per step.
  size_t Lines = std::count(Grid.begin(), Grid.end(), '\n');
  EXPECT_EQ(Lines, 2 + Schedule.Makespan);
  EXPECT_NE(Grid.find("j=5"), std::string::npos);
  EXPECT_NE(Grid.find("step"), std::string::npos);
}

TEST(Rendering, FigureOneMentionsPaperBound) {
  SuperCayleyGraph Ms = SuperCayleyGraph::create(NetworkKind::MacroStar, 3, 2);
  std::string Text = renderFigureOne(Ms);
  EXPECT_NE(Text.find("paper bound 4"), std::string::npos);
  EXPECT_NE(Text.find("average utilization"), std::string::npos);
}

TEST(Rendering, FigureOneUtilizationIsConsistent) {
  // Transmissions / slots must match the printed percentage's inputs.
  SuperCayleyGraph Ms = SuperCayleyGraph::create(NetworkKind::MacroStar, 5, 3);
  AllPortSchedule Schedule = buildAllPortSchedule(Ms);
  ScheduleStats Stats = computeScheduleStats(Ms, Schedule);
  EXPECT_EQ(Stats.Slots, uint64_t(Ms.degree()) * Schedule.Makespan);
  EXPECT_NEAR(Stats.AverageUtilization,
              double(Stats.Transmissions) / double(Stats.Slots), 1e-12);
}
