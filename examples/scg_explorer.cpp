//===- examples/scg_explorer.cpp - Command-line network explorer ---------===//
//
// A small CLI over the library:
//
//   scg_explorer info <spec>               properties + generator list
//   scg_explorer route <spec> "<src>" "<dst>"
//                                          lifted + optimal routes
//   scg_explorer schedule <spec>           the Theorem 4/5 all-port grid
//   scg_explorer dot <spec>                Graphviz DOT of the network
//   scg_explorer certify <spec>            Schreier-Sims connectivity
//
// <spec> is a network name as SuperCayleyGraph::name() prints it (see
// core/NetworkSpec.h): "MS(2,3)", "complete-RIS(3,2)", "star(7)", ...;
// labels are 1-based one-line permutations like "3 1 2 5 4". Bad input
// prints usage and exits 2, and so do route above k = 16 symbols and
// certify above k = 64.
//
//===----------------------------------------------------------------------===//

#include "core/NetworkSpec.h"
#include "emulation/FigureOne.h"
#include "emulation/SdcEmulation.h"
#include "graph/Dot.h"
#include "graph/Metrics.h"
#include "networks/Explicit.h"
#include "perm/GroupOrder.h"
#include "query/QueryEngine.h"
#include "routing/BagSolver.h"
#include "routing/RouteOptimizer.h"

#include <cstdio>
#include <cstring>

using namespace scg;

namespace {

int cmdInfo(const SuperCayleyGraph &Net) {
  std::printf("network   %s\n", Net.name().c_str());
  std::printf("symbols   %u (l = %u boxes of n = %u balls + 1)\n",
              Net.numSymbols(), Net.numBoxes(), Net.ballsPerBox());
  // k! fits 64 bits up to k = 20; beyond, only the formula is printed.
  if (Net.numSymbols() <= 20)
    std::printf("nodes     %llu\n", (unsigned long long)Net.numNodes());
  else
    std::printf("nodes     %u!\n", Net.numSymbols());
  std::printf("degree    %u (%s)\n", Net.degree(),
              Net.isUndirected() ? "undirected" : "directed");
  std::printf("links     ");
  for (const Generator &G : Net.generators())
    std::printf("%s%s ", G.Name.c_str(),
                G.Kind == GeneratorKind::Super ? "*" : "");
  std::printf("  (* = super generator)\n");
  if (Net.numSymbols() <= 8) {
    DistanceStats Stats =
        vertexTransitiveStats(ExplicitScg(Net).toGraph());
    std::printf("diameter  %u, average distance %.3f\n", Stats.Diameter,
                Stats.AverageDistance);
  }
  if (supportsStarEmulation(Net))
    std::printf("SDC star-emulation slowdown: %u\n",
                analyzeSdcEmulation(Net).Slowdown);
  return 0;
}

int cmdRoute(const SuperCayleyGraph &Net, const char *SrcText,
             const char *DstText) {
  if (Net.numSymbols() > Permutation::InlineCapacity) {
    std::fprintf(stderr, "routes are served for k <= %u symbols\n",
                 Permutation::InlineCapacity);
    return 2;
  }
  Permutation Src = Permutation::parseOneBased(SrcText);
  Permutation Dst = Permutation::parseOneBased(DstText);
  if (Src.size() != Net.numSymbols() || Dst.size() != Net.numSymbols()) {
    std::fprintf(stderr, "labels must be permutations of 1..%u\n",
                 Net.numSymbols());
    return 2;
  }
  std::printf("from  %s\n", Src.strBoxes(Net.ballsPerBox()).c_str());
  std::printf("to    %s\n", Dst.strBoxes(Net.ballsPerBox()).c_str());
  if (supportsStarEmulation(Net)) {
    GeneratorPath Lifted(QueryEngine(Net).route(Src, Dst).Hops);
    GeneratorPath Simple = simplifyPath(Net, Lifted);
    std::printf("lifted     (%2u hops)  %s\n", Lifted.length(),
                Lifted.str(Net).c_str());
    std::printf("simplified (%2u hops)  %s\n", Simple.length(),
                Simple.str(Net).c_str());
  }
  if (Net.numSymbols() <= 9) {
    if (auto Optimal = solveBag(Net, Src, Dst))
      std::printf("optimal    (%2u hops)  %s\n", Optimal->length(),
                  Optimal->str(Net).c_str());
  }
  return 0;
}

int cmdSchedule(const SuperCayleyGraph &Net) {
  if (!supportsStarEmulation(Net)) {
    std::fprintf(stderr, "%s cannot emulate star dimensions directly\n",
                 Net.name().c_str());
    return 2;
  }
  std::printf("%s", renderFigureOne(Net).c_str());
  return 0;
}

int cmdDot(const SuperCayleyGraph &Net) {
  if (Net.numSymbols() > 6) {
    std::fprintf(stderr, "DOT export limited to k <= 6 (%llu nodes)\n",
                 (unsigned long long)Net.numNodes());
    return 2;
  }
  ExplicitScg Explicit(Net);
  DotOptions Options;
  Options.Directed = !Net.isUndirected();
  Options.GraphName = "scg";
  Options.NodeLabel = [&Explicit](NodeId U) {
    return Explicit.label(U).str();
  };
  Options.EdgeLabel = [&](NodeId U, NodeId V) {
    std::optional<GenIndex> G =
        linkBetween(Net, Explicit.label(U), Explicit.label(V));
    return G ? Net.generators()[*G].Name : std::string();
  };
  std::printf("%s", renderDot(Explicit.toGraph(), Options).c_str());
  return 0;
}

int cmdCertify(const SuperCayleyGraph &Net) {
  // The Schreier-Sims chain slows steeply with degree: star(100) takes
  // about half a minute, and MS(2,127) over a minute.
  if (Net.numSymbols() > 64) {
    std::fprintf(stderr, "certify is limited to k <= 64 symbols\n");
    return 2;
  }
  std::vector<Permutation> Actions;
  for (const Generator &G : Net.generators())
    Actions.push_back(G.Sigma);
  bool Full = generatesSymmetricGroup(Actions);
  std::printf("%s: generators %s S_%u  =>  %s\n", Net.name().c_str(),
              Full ? "generate" : "do NOT generate", Net.numSymbols(),
              Full ? "strongly connected with k! nodes" : "NOT connected");
  return Full ? 0 : 1;
}

void usage() {
  std::fprintf(stderr,
               "usage: scg_explorer info|schedule|dot|certify <spec>\n"
               "       scg_explorer route <spec> \"<src>\" \"<dst>\"\n"
               "<spec> names a network, e.g. 'MS(2,3)' or 'star(6)'\n");
}

} // namespace

int main(int Argc, char **Argv) {
  std::optional<SuperCayleyGraph> Parsed;
  if (Argc >= 3)
    Parsed = parseNetworkSpec(Argv[2]);
  if (!Parsed) {
    usage();
    return 2;
  }
  const SuperCayleyGraph &Net = *Parsed;
  if (!std::strcmp(Argv[1], "info"))
    return cmdInfo(Net);
  if (!std::strcmp(Argv[1], "route") && Argc >= 5)
    return cmdRoute(Net, Argv[3], Argv[4]);
  if (!std::strcmp(Argv[1], "schedule"))
    return cmdSchedule(Net);
  if (!std::strcmp(Argv[1], "dot"))
    return cmdDot(Net);
  if (!std::strcmp(Argv[1], "certify"))
    return cmdCertify(Net);
  usage();
  return 2;
}
