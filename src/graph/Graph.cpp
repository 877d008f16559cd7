//===- graph/Graph.cpp - Explicit directed graph container ---------------===//

#include "graph/Graph.h"

#include <algorithm>

using namespace scg;

bool Graph::hasEdge(NodeId From, NodeId To) const {
  auto Span = neighbors(From);
  return std::find(Span.begin(), Span.end(), To) != Span.end();
}
