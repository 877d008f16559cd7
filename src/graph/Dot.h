//===- graph/Dot.h - Graphviz export ---------------------------*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Graphviz DOT export for explicit graphs, with optional node and edge
/// labels. Small super Cayley graphs render nicely with generator-colored
/// links (the classic way the star graph and its relatives are drawn).
///
//===----------------------------------------------------------------------===//

#ifndef SCG_GRAPH_DOT_H
#define SCG_GRAPH_DOT_H

#include "graph/Csr.h"

#include <functional>
#include <string>

namespace scg {

/// Options for renderDot.
struct DotOptions {
  bool Directed = false;      ///< digraph vs graph (dedups reverse edges).
  std::string GraphName = "g";
  /// Node label; defaults to the id.
  std::function<std::string(NodeId)> NodeLabel;
  /// Edge label (e.g. generator name); empty = unlabeled.
  std::function<std::string(NodeId, NodeId)> EdgeLabel;
};

/// Renders \p G in DOT syntax.
std::string renderDot(const Csr &G, const DotOptions &Options = {});

} // namespace scg

#endif // SCG_GRAPH_DOT_H
