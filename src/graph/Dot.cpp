//===- graph/Dot.cpp - Graphviz export ------------------------------------===//

#include "graph/Dot.h"

#include <sstream>

using namespace scg;

std::string scg::renderDot(const Csr &G, const DotOptions &Options) {
  std::ostringstream OS;
  const char *Kind = Options.Directed ? "digraph" : "graph";
  const char *Arrow = Options.Directed ? " -> " : " -- ";
  OS << Kind << " " << Options.GraphName << " {\n";
  for (NodeId Node = 0; Node != G.numNodes(); ++Node) {
    OS << "  n" << Node;
    if (Options.NodeLabel)
      OS << " [label=\"" << Options.NodeLabel(Node) << "\"]";
    OS << ";\n";
  }
  for (NodeId From = 0; From != G.numNodes(); ++From)
    for (NodeId To : G.neighbors(From)) {
      if (!Options.Directed && From > To)
        continue; // emit each undirected edge once.
      OS << "  n" << From << Arrow << "n" << To;
      if (Options.EdgeLabel) {
        std::string Label = Options.EdgeLabel(From, To);
        if (!Label.empty())
          OS << " [label=\"" << Label << "\"]";
      }
      OS << ";\n";
    }
  OS << "}\n";
  return OS.str();
}
