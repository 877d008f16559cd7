//===- tests/MeshEmbeddingTest.cpp - Corollaries 6-7 mesh tests ----------===//

#include "embedding/MeshEmbeddings.h"

#include "networks/Classic.h"
#include "perm/Lehmer.h"

#include <gtest/gtest.h>

using namespace scg;

TEST(SjtMesh, ShapeMultipliesToKFactorial) {
  for (unsigned K = 2; K <= 8; ++K) {
    SjtMeshShape Shape = sjtMeshShape(K);
    EXPECT_EQ(Shape.Rows * Shape.Cols, factorial(K));
  }
}

TEST(SjtMesh, DilationOneIntoTn) {
  // Corollary 6 via [12]: load 1, expansion 1, dilation 1.
  for (unsigned K = 3; K <= 6; ++K) {
    SuperCayleyGraph Tn = SuperCayleyGraph::transpositionNetwork(K);
    SjtMeshShape Shape = sjtMeshShape(K);
    Csr Guest = mesh2D(Shape.Rows, Shape.Cols);
    Embedding E = embedSjtMeshIntoTn(Tn);
    EmbeddingMetrics M = measureEmbedding(Guest, E);
    EXPECT_TRUE(M.Valid) << "k=" << K;
    EXPECT_EQ(M.Load, 1u) << "k=" << K;
    EXPECT_DOUBLE_EQ(M.Expansion, 1.0) << "k=" << K;
    EXPECT_EQ(M.Dilation, 1u) << "k=" << K;
  }
}

TEST(SjtMesh, CongestionOneIntoTn) {
  // Dilation-1 one-to-one embeddings have congestion at most 1 per
  // directed link (each mesh edge is its own host link).
  SuperCayleyGraph Tn = SuperCayleyGraph::transpositionNetwork(5);
  SjtMeshShape Shape = sjtMeshShape(5);
  Csr Guest = mesh2D(Shape.Rows, Shape.Cols);
  EmbeddingMetrics M = measureEmbedding(Guest, embedSjtMeshIntoTn(Tn));
  EXPECT_EQ(M.Congestion, 1u);
}

TEST(LehmerMesh, DimsAreTwoThroughK) {
  EXPECT_EQ(lehmerMeshDims(5), (std::vector<unsigned>{2, 3, 4, 5}));
}

TEST(LehmerMesh, MeshSizeIsKFactorial) {
  std::vector<unsigned> Dims = lehmerMeshDims(6);
  uint64_t N = 1;
  for (unsigned D : Dims)
    N *= D;
  EXPECT_EQ(N, factorial(6));
}

TEST(LehmerMesh, DilationThreeIntoStar) {
  // Corollary 7 via [11]: load 1, expansion 1, dilation 3.
  for (unsigned K = 3; K <= 6; ++K) {
    SuperCayleyGraph Star = SuperCayleyGraph::star(K);
    Csr Guest = mixedRadixMesh(lehmerMeshDims(K));
    Embedding E = embedLehmerMeshIntoStar(Star);
    EmbeddingMetrics M = measureEmbedding(Guest, E);
    EXPECT_TRUE(M.Valid) << "k=" << K;
    EXPECT_EQ(M.Load, 1u) << "k=" << K;
    EXPECT_DOUBLE_EQ(M.Expansion, 1.0) << "k=" << K;
    EXPECT_EQ(M.Dilation, 3u) << "k=" << K;
  }
}

TEST(LehmerMesh, EdgeStepsAreSingleTranspositions) {
  // A +-1 Lehmer-digit step transposes exactly two symbols, so the star
  // route has length 1 (position 1 involved) or 3.
  SuperCayleyGraph Star = SuperCayleyGraph::star(5);
  Csr Guest = mixedRadixMesh(lehmerMeshDims(5));
  Embedding E = embedLehmerMeshIntoStar(Star);
  for (NodeId U = 0; U != Guest.numNodes(); ++U)
    for (NodeId V : Guest.neighbors(U)) {
      unsigned Len = E.Route(U, V).length();
      EXPECT_TRUE(Len == 1 || Len == 3) << U << "->" << V;
    }
}
