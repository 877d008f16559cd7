//===- tests/StarEmbeddingTest.cpp - Section 3 star embeddings -----------===//

#include "embedding/StarEmbeddings.h"

#include "networks/Explicit.h"

#include <gtest/gtest.h>

using namespace scg;

namespace {

/// Measures the star embedding into a freshly built host.
EmbeddingMetrics measureInto(const SuperCayleyGraph &Host) {
  SuperCayleyGraph Star = SuperCayleyGraph::star(Host.numSymbols());
  Csr Guest = ExplicitScg(Star).toCsr();
  Embedding E = embedStarInto(Star, Host);
  return measureEmbedding(Guest, E);
}

} // namespace

TEST(StarEmbedding, IntoMacroStar22) {
  SuperCayleyGraph Host = SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2);
  EmbeddingMetrics M = measureInto(Host);
  EXPECT_TRUE(M.Valid);
  EXPECT_EQ(M.Load, 1u);
  EXPECT_DOUBLE_EQ(M.Expansion, 1.0);
  EXPECT_EQ(M.Dilation, paperStarDilationBound(Host)); // 3.
  EXPECT_EQ(M.Congestion, paperStarCongestionBound(Host)); // max(2n,l) = 4.
}

TEST(StarEmbedding, IntoMacroStar32) {
  SuperCayleyGraph Host = SuperCayleyGraph::create(NetworkKind::MacroStar, 3, 2);
  EmbeddingMetrics M = measureInto(Host);
  EXPECT_TRUE(M.Valid);
  EXPECT_EQ(M.Dilation, 3u);
  EXPECT_EQ(M.Congestion, 4u); // max(2*2, 3).
}

TEST(StarEmbedding, IntoCompleteRotationStar32) {
  SuperCayleyGraph Host =
      SuperCayleyGraph::create(NetworkKind::CompleteRotationStar, 3, 2);
  EmbeddingMetrics M = measureInto(Host);
  EXPECT_TRUE(M.Valid);
  EXPECT_EQ(M.Load, 1u);
  EXPECT_EQ(M.Dilation, 3u);
  EXPECT_EQ(M.Congestion, paperStarCongestionBound(Host));
}

TEST(StarEmbedding, IntoInsertionSelection) {
  SuperCayleyGraph Host = SuperCayleyGraph::insertionSelection(6);
  EmbeddingMetrics M = measureInto(Host);
  EXPECT_TRUE(M.Valid);
  EXPECT_EQ(M.Load, 1u);
  EXPECT_EQ(M.Dilation, 2u);     // Theorem 2.
  EXPECT_EQ(M.Congestion, 1u);   // Section 3: congestion 1.
}

TEST(StarEmbedding, IntoMacroIs22) {
  SuperCayleyGraph Host = SuperCayleyGraph::create(NetworkKind::MacroIS, 2, 2);
  EmbeddingMetrics M = measureInto(Host);
  EXPECT_TRUE(M.Valid);
  EXPECT_EQ(M.Dilation, 4u); // Theorem 3.
  EXPECT_EQ(M.Congestion, paperStarCongestionBound(Host));
}

TEST(StarEmbedding, IntoCompleteRotationIs32) {
  SuperCayleyGraph Host =
      SuperCayleyGraph::create(NetworkKind::CompleteRotationIS, 3, 2);
  EmbeddingMetrics M = measureInto(Host);
  EXPECT_TRUE(M.Valid);
  EXPECT_EQ(M.Dilation, 4u);
  EXPECT_LE(M.Congestion, paperStarCongestionBound(Host));
}

TEST(StarEmbedding, PerDimensionCongestionClaim) {
  // Section 3: per-dimension congestion is 2 for j > n+1 and 1 otherwise.
  for (NetworkKind Kind :
       {NetworkKind::MacroStar, NetworkKind::CompleteRotationStar,
        NetworkKind::MacroIS}) {
    SuperCayleyGraph Host = SuperCayleyGraph::create(Kind, 2, 2);
    unsigned N = Host.ballsPerBox();
    for (unsigned Dim = 2; Dim <= Host.numSymbols(); ++Dim) {
      uint64_t C = starDimensionCongestion(Host, Dim);
      EXPECT_EQ(C, Dim > N + 1 ? 2u : 1u)
          << Host.name() << " dim " << Dim;
    }
  }
}

TEST(StarEmbedding, PerDimensionCongestionOnIs) {
  SuperCayleyGraph Host = SuperCayleyGraph::insertionSelection(5);
  for (unsigned Dim = 2; Dim <= 5; ++Dim)
    EXPECT_EQ(starDimensionCongestion(Host, Dim), 1u) << "dim " << Dim;
}
