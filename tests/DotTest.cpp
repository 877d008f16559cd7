//===- tests/DotTest.cpp - Graphviz export tests -------------------------===//

#include "graph/Dot.h"

#include "networks/Classic.h"

#include "Oracles.h"

#include <gtest/gtest.h>

using namespace scg;

TEST(Dot, UndirectedEmitsEachEdgeOnce) {
  Csr G = oracle::undirectedGraph(3, {{0, 1}, {1, 2}});
  std::string Out = renderDot(G);
  EXPECT_NE(Out.find("graph g {"), std::string::npos);
  EXPECT_NE(Out.find("n0 -- n1;"), std::string::npos);
  EXPECT_NE(Out.find("n1 -- n2;"), std::string::npos);
  EXPECT_EQ(Out.find("n1 -- n0"), std::string::npos);
}

TEST(Dot, DirectedKeepsBothDirections) {
  Csr G(2, std::vector<std::pair<NodeId, NodeId>>{{0, 1}, {1, 0}});
  DotOptions Options;
  Options.Directed = true;
  std::string Out = renderDot(G, Options);
  EXPECT_NE(Out.find("digraph"), std::string::npos);
  EXPECT_NE(Out.find("n0 -> n1;"), std::string::npos);
  EXPECT_NE(Out.find("n1 -> n0;"), std::string::npos);
}

TEST(Dot, LabelsAppear) {
  Csr G = oracle::undirectedGraph(2, {{0, 1}});
  DotOptions Options;
  Options.NodeLabel = [](NodeId N) { return "v" + std::to_string(N); };
  Options.EdgeLabel = [](NodeId, NodeId) { return std::string("e"); };
  std::string Out = renderDot(G, Options);
  EXPECT_NE(Out.find("[label=\"v0\"]"), std::string::npos);
  EXPECT_NE(Out.find("[label=\"e\"]"), std::string::npos);
}

TEST(Dot, MeshExportsAllEdges) {
  Csr G = mesh2D(2, 3);
  std::string Out = renderDot(G);
  // 7 undirected edges -> 7 "--" occurrences.
  size_t Count = 0, Pos = 0;
  while ((Pos = Out.find("--", Pos)) != std::string::npos) {
    ++Count;
    Pos += 2;
  }
  EXPECT_EQ(Count, 7u);
}
