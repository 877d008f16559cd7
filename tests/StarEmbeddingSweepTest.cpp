//===- tests/StarEmbeddingSweepTest.cpp - E14 parameter sweep ------------===//
//
// Parameterized sweep of the Section 3 star-embedding numbers across the
// four box classes and several (l, n): exact dilation and congestion
// measured against the paper's constants on every host small enough to
// enumerate.
//
//===----------------------------------------------------------------------===//

#include "embedding/StarEmbeddings.h"

#include "networks/Explicit.h"

#include <gtest/gtest.h>

using namespace scg;

namespace {

struct SweepParams {
  NetworkKind Kind;
  unsigned L, N;
};

std::string sweepName(const testing::TestParamInfo<SweepParams> &Info) {
  std::string Name = networkKindName(Info.param.Kind) + "_" +
                     std::to_string(Info.param.L) + "_" +
                     std::to_string(Info.param.N);
  for (char &C : Name)
    if (C == '-')
      C = '_';
  return Name;
}

std::vector<SweepParams> grid() {
  std::vector<SweepParams> Grid;
  for (NetworkKind Kind :
       {NetworkKind::MacroStar, NetworkKind::CompleteRotationStar,
        NetworkKind::MacroIS, NetworkKind::CompleteRotationIS})
    for (auto [L, N] : {std::pair{2u, 2u}, {3u, 2u}, {2u, 3u}, {6u, 1u}})
      Grid.push_back({Kind, L, N});
  return Grid;
}

} // namespace

class StarEmbeddingSweep : public testing::TestWithParam<SweepParams> {};

TEST_P(StarEmbeddingSweep, MeasuredMetricsMatchSection3) {
  auto [Kind, L, N] = GetParam();
  SuperCayleyGraph Host = SuperCayleyGraph::create(Kind, L, N);
  SuperCayleyGraph Star = SuperCayleyGraph::star(Host.numSymbols());
  Graph Guest = ExplicitScg(Star).toGraph();
  EmbeddingMetrics M = measureEmbedding(Guest, embedStarInto(Star, Host));
  ASSERT_TRUE(M.Valid) << Host.name();
  EXPECT_EQ(M.Load, 1u) << Host.name();
  EXPECT_DOUBLE_EQ(M.Expansion, 1.0) << Host.name();
  // Dilation: the paper constant, except that hosts with n = 1 have a
  // single-hop nucleus (no selection needed), trimming IS-nucleus paths.
  unsigned Dilation = paperStarDilationBound(Host);
  if (N == 1 && (Kind == NetworkKind::MacroIS ||
                 Kind == NetworkKind::CompleteRotationIS))
    Dilation -= 1;
  EXPECT_EQ(M.Dilation, Dilation) << Host.name();
  EXPECT_EQ(M.Congestion, paperStarCongestionBound(Host)) << Host.name();
}

TEST_P(StarEmbeddingSweep, PerDimensionCongestionIsTwoOrOne) {
  auto [Kind, L, N] = GetParam();
  SuperCayleyGraph Host = SuperCayleyGraph::create(Kind, L, N);
  bool SwapHost =
      Kind == NetworkKind::MacroStar || Kind == NetworkKind::MacroIS;
  for (unsigned Dim = 2; Dim <= Host.numSymbols(); ++Dim) {
    uint64_t C = starDimensionCongestion(Host, Dim);
    if (Dim <= N + 1) {
      EXPECT_EQ(C, 1u) << Host.name() << " dim " << Dim;
      continue;
    }
    // The paper's "only 2": exact on swap hosts, where the bring and
    // return share the involution S_b; complete-rotation hosts split
    // those two uses over R^{-j1} and R^{j1} and do one better (1)
    // whenever the two rotations are distinct links.
    EXPECT_LE(C, 2u) << Host.name() << " dim " << Dim;
    if (SwapHost) {
      EXPECT_EQ(C, 2u) << Host.name() << " dim " << Dim;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Section3, StarEmbeddingSweep,
                         testing::ValuesIn(grid()), sweepName);
