//===- tests/CorollariesTest.cpp - Corollaries 4-7 composition tests -----===//
//
// The corollaries compose a guest -> star (or guest -> TN) embedding with
// the star/TN -> super-Cayley-graph templates of Theorems 1-3 and 6-7.
// Each test builds the composition and checks the claimed dilation.
//
//===----------------------------------------------------------------------===//

#include "embedding/HypercubeEmbedding.h"
#include "embedding/MeshEmbeddings.h"
#include "embedding/PathTemplates.h"
#include "embedding/TreeEmbedding.h"

#include "networks/Classic.h"

#include <gtest/gtest.h>

using namespace scg;

TEST(Corollary4, TreeIntoIsMsAndMis) {
  // Base: dilation-1 tree -> 5-star; composed dilations 2 / 3 / 4.
  SuperCayleyGraph Star = SuperCayleyGraph::star(5);
  ExplicitScg StarX(Star);
  TreeEmbeddingResult Base = embedTreeIntoStar(StarX, /*Height=*/3, 1);
  ASSERT_TRUE(Base.Found);
  Csr Guest = completeBinaryTree(3);

  struct Case {
    SuperCayleyGraph Host;
    unsigned Dilation;
  };
  std::vector<Case> Cases;
  Cases.push_back({SuperCayleyGraph::insertionSelection(5), 2});
  Cases.push_back({SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2), 3});
  Cases.push_back({SuperCayleyGraph::create(NetworkKind::MacroIS, 2, 2), 4});
  Cases.push_back(
      {SuperCayleyGraph::create(NetworkKind::CompleteRotationStar, 2, 2), 3});
  Cases.push_back(
      {SuperCayleyGraph::create(NetworkKind::CompleteRotationIS, 2, 2), 4});

  for (const Case &C : Cases) {
    PathTemplateMap Map = PathTemplateMap::create(Star, C.Host);
    Embedding Composed = composeEmbedding(Base.E, Map);
    EmbeddingMetrics M = measureEmbedding(Guest, Composed);
    EXPECT_TRUE(M.Valid) << C.Host.name();
    EXPECT_EQ(M.Load, 1u) << C.Host.name();
    EXPECT_LE(M.Dilation, C.Dilation) << C.Host.name();
  }
}

TEST(Corollary5, HypercubeIntoSuperCayleyGraphs) {
  // Base: dilation-3 hypercube -> 7-star; composed dilation <= 3 * bound.
  SuperCayleyGraph Star = SuperCayleyGraph::star(7);
  Embedding Base = embedHypercubeIntoStar(Star);
  Csr Guest = hypercube(hypercubeDimensionFor(7));

  for (NetworkKind Kind : {NetworkKind::MacroStar,
                           NetworkKind::CompleteRotationStar,
                           NetworkKind::MacroIS}) {
    SuperCayleyGraph Host = SuperCayleyGraph::create(Kind, 3, 2);
    PathTemplateMap Map = PathTemplateMap::create(Star, Host);
    Embedding Composed = composeEmbedding(Base, Map);
    EmbeddingMetrics M = measureEmbedding(Guest, Composed);
    EXPECT_TRUE(M.Valid) << Host.name();
    EXPECT_EQ(M.Load, 1u) << Host.name();
    EXPECT_LE(M.Dilation, 3 * Map.maxTemplateLength()) << Host.name();
  }
}

TEST(Corollary5, HypercubeIntoIs) {
  SuperCayleyGraph Star = SuperCayleyGraph::star(7);
  SuperCayleyGraph Is = SuperCayleyGraph::insertionSelection(7);
  Embedding Base = embedHypercubeIntoStar(Star);
  PathTemplateMap Map = PathTemplateMap::create(Star, Is);
  EmbeddingMetrics M = measureEmbedding(hypercube(3),
                                        composeEmbedding(Base, Map));
  EXPECT_TRUE(M.Valid);
  EXPECT_LE(M.Dilation, 6u); // 3 star hops, each at most 2 IS hops.
}

TEST(Corollary6, SjtMeshIntoMacroStar2n) {
  // m1 x m2 mesh -> MS(2,n) with load 1, expansion 1, dilation 5:
  // dilation-1 mesh -> TN composed with the Theorem 6 dilation-5 templates.
  SuperCayleyGraph Tn = SuperCayleyGraph::transpositionNetwork(5);
  SuperCayleyGraph Ms = SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2);
  SjtMeshShape Shape = sjtMeshShape(5);
  Csr Guest = mesh2D(Shape.Rows, Shape.Cols);

  Embedding Base = embedSjtMeshIntoTn(Tn);
  PathTemplateMap Map = PathTemplateMap::create(Tn, Ms);
  EmbeddingMetrics M = measureEmbedding(Guest, composeEmbedding(Base, Map));
  EXPECT_TRUE(M.Valid);
  EXPECT_EQ(M.Load, 1u);
  EXPECT_DOUBLE_EQ(M.Expansion, 1.0);
  EXPECT_LE(M.Dilation, 5u);
}

TEST(Corollary6, SjtMeshIntoMisAndCompleteRs) {
  SuperCayleyGraph Tn = SuperCayleyGraph::transpositionNetwork(5);
  SjtMeshShape Shape = sjtMeshShape(5);
  Csr Guest = mesh2D(Shape.Rows, Shape.Cols);
  Embedding Base = embedSjtMeshIntoTn(Tn);

  for (NetworkKind Kind :
       {NetworkKind::MacroIS, NetworkKind::CompleteRotationStar}) {
    SuperCayleyGraph Host = SuperCayleyGraph::create(Kind, 2, 2);
    PathTemplateMap Map = PathTemplateMap::create(Tn, Host);
    EmbeddingMetrics M =
        measureEmbedding(Guest, composeEmbedding(Base, Map));
    EXPECT_TRUE(M.Valid) << Host.name();
    EXPECT_EQ(M.Load, 1u) << Host.name();
    EXPECT_LE(M.Dilation, Map.maxTemplateLength()) << Host.name();
  }
}

TEST(Corollary7, LehmerMeshIntoSuperCayleyGraphs) {
  // 2x3x...xk mesh -> star (dilation 3), composed into IS / MS / MIS.
  SuperCayleyGraph Star = SuperCayleyGraph::star(5);
  Csr Guest = mixedRadixMesh(lehmerMeshDims(5));
  Embedding Base = embedLehmerMeshIntoStar(Star);

  struct Case {
    SuperCayleyGraph Host;
    unsigned DilationCap;
  };
  std::vector<Case> Cases;
  Cases.push_back({SuperCayleyGraph::insertionSelection(5), 6});
  Cases.push_back({SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2), 9});
  Cases.push_back({SuperCayleyGraph::create(NetworkKind::MacroIS, 2, 2), 12});

  for (const Case &C : Cases) {
    PathTemplateMap Map = PathTemplateMap::create(Star, C.Host);
    EmbeddingMetrics M =
        measureEmbedding(Guest, composeEmbedding(Base, Map));
    EXPECT_TRUE(M.Valid) << C.Host.name();
    EXPECT_EQ(M.Load, 1u) << C.Host.name();
    EXPECT_DOUBLE_EQ(M.Expansion, 1.0) << C.Host.name();
    EXPECT_LE(M.Dilation, C.DilationCap) << C.Host.name();
  }
}
