//===- tests/TnEmbeddingTest.cpp - Theorems 6-7 tests --------------------===//

#include "embedding/TnEmbeddings.h"

#include "embedding/PathTemplates.h"
#include "networks/Explicit.h"

#include <gtest/gtest.h>

using namespace scg;

namespace {

/// All templates realize their pair transpositions and respect the bound.
void checkTemplates(const SuperCayleyGraph &Host) {
  unsigned K = Host.numSymbols();
  unsigned MaxLen = 0;
  for (unsigned I = 1; I != K; ++I)
    for (unsigned J = I + 1; J <= K; ++J) {
      GeneratorPath Path = tnPairPath(Host, I, J);
      EXPECT_EQ(Path.netEffect(Host),
                makePairTransposition(K, I, J).Sigma)
          << Host.name() << " T_{" << I << "," << J << "}";
      MaxLen = std::max(MaxLen, Path.length());
    }
  EXPECT_EQ(MaxLen, paperTnDilationBound(Host)) << Host.name();
}

EmbeddingMetrics measureTnInto(const SuperCayleyGraph &Host) {
  SuperCayleyGraph Tn =
      SuperCayleyGraph::transpositionNetwork(Host.numSymbols());
  Csr Guest = ExplicitScg(Tn).toCsr();
  PathTemplateMap Map = PathTemplateMap::create(Tn, Host);
  Embedding E = templateEmbedding(Map);
  return measureEmbedding(Guest, E);
}

} // namespace

TEST(TnEmbedding, Theorem6DilationFiveWhenLIsTwo) {
  for (auto [L, N] : {std::pair{2u, 2u}, {2u, 3u}, {2u, 4u}}) {
    checkTemplates(SuperCayleyGraph::create(NetworkKind::MacroStar, L, N));
    checkTemplates(
        SuperCayleyGraph::create(NetworkKind::CompleteRotationStar, L, N));
  }
}

TEST(TnEmbedding, Theorem6DilationSevenWhenLAtLeastThree) {
  for (auto [L, N] : {std::pair{3u, 2u}, {4u, 3u}, {3u, 4u}, {5u, 2u}}) {
    checkTemplates(SuperCayleyGraph::create(NetworkKind::MacroStar, L, N));
    checkTemplates(
        SuperCayleyGraph::create(NetworkKind::CompleteRotationStar, L, N));
  }
}

TEST(TnEmbedding, Theorem7DilationSixIntoIs) {
  for (unsigned K = 4; K <= 9; ++K)
    checkTemplates(SuperCayleyGraph::insertionSelection(K));
}

TEST(TnEmbedding, Theorem7ConstantDilationIntoMis) {
  for (auto [L, N] : {std::pair{3u, 3u}, {4u, 3u}}) {
    SuperCayleyGraph Host = SuperCayleyGraph::create(NetworkKind::MacroIS, L, N);
    unsigned K = Host.numSymbols();
    for (unsigned I = 1; I != K; ++I)
      for (unsigned J = I + 1; J <= K; ++J) {
        GeneratorPath Path = tnPairPath(Host, I, J);
        EXPECT_EQ(Path.netEffect(Host), makePairTransposition(K, I, J).Sigma);
        EXPECT_LE(Path.length(), paperTnDilationBound(Host));
      }
  }
}

TEST(TnEmbedding, StarHostHasDilationThree) {
  checkTemplates(SuperCayleyGraph::star(7));
}

TEST(TnEmbedding, MeasuredMetricsIntoMacroStar22) {
  SuperCayleyGraph Host = SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2);
  EmbeddingMetrics M = measureTnInto(Host);
  EXPECT_TRUE(M.Valid);
  EXPECT_EQ(M.Load, 1u);          // one-to-one (Theorem 6).
  EXPECT_DOUBLE_EQ(M.Expansion, 1.0);
  EXPECT_EQ(M.Dilation, 5u);
}

TEST(TnEmbedding, MeasuredMetricsIntoMacroStar32) {
  SuperCayleyGraph Host = SuperCayleyGraph::create(NetworkKind::MacroStar, 3, 2);
  EmbeddingMetrics M = measureTnInto(Host);
  EXPECT_TRUE(M.Valid);
  EXPECT_EQ(M.Load, 1u);
  EXPECT_EQ(M.Dilation, 7u);
}

TEST(TnEmbedding, MeasuredMetricsIntoIs6) {
  SuperCayleyGraph Host = SuperCayleyGraph::insertionSelection(6);
  EmbeddingMetrics M = measureTnInto(Host);
  EXPECT_TRUE(M.Valid);
  EXPECT_EQ(M.Dilation, 6u);
}

TEST(TnEmbedding, BubbleSortIsTnSubgraph) {
  // Section 5: the bubble-sort graph is a subgraph of the TN, so its edges
  // embed with the same templates; adjacent transpositions are pairs.
  SuperCayleyGraph Host = SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2);
  unsigned K = Host.numSymbols();
  for (unsigned I = 1; I + 1 <= K; ++I) {
    GeneratorPath Path = tnPairPath(Host, I, I + 1);
    EXPECT_EQ(Path.netEffect(Host),
              makeAdjacentTransposition(K, I).Sigma);
  }
}
