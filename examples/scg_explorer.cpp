//===- examples/scg_explorer.cpp - Command-line network explorer ---------===//
//
// A small CLI over the library:
//
//   scg_explorer info <kind> <l> <n>       properties + generator list
//   scg_explorer route <kind> <l> <n> "<src>" "<dst>"
//                                          lifted + optimal routes
//   scg_explorer schedule <kind> <l> <n>   the Theorem 4/5 all-port grid
//   scg_explorer dot <kind> <l> <n>        Graphviz DOT of the network
//   scg_explorer certify <kind> <l> <n>    Schreier-Sims connectivity
//
// <kind>: MS | RS | complete-RS | MR | RR | complete-RR | MIS | RIS |
//         complete-RIS; labels are 1-based one-line permutations like
//         "3 1 2 5 4".
//
//===----------------------------------------------------------------------===//

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
#include <cstdlib>
#include <cstring>

using namespace scg;

namespace {

NetworkKind parseKind(const char *Name) {
  struct Entry {
    const char *Name;
    NetworkKind Kind;
  };
  static const Entry Table[] = {
      {"MS", NetworkKind::MacroStar},
      {"RS", NetworkKind::RotationStar},
      {"complete-RS", NetworkKind::CompleteRotationStar},
      {"MR", NetworkKind::MacroRotator},
      {"RR", NetworkKind::RotationRotator},
      {"complete-RR", NetworkKind::CompleteRotationRotator},
      {"MIS", NetworkKind::MacroIS},
      {"RIS", NetworkKind::RotationIS},
      {"complete-RIS", NetworkKind::CompleteRotationIS},
  };
  for (const Entry &E : Table)
    if (!std::strcmp(Name, E.Name))
      return E.Kind;
  std::fprintf(stderr, "unknown network kind '%s'\n", Name);
  std::exit(2);
}

int cmdInfo(const SuperCayleyGraph &Net) {
  std::printf("network   %s\n", Net.name().c_str());
  std::printf("symbols   %u (l = %u boxes of n = %u balls + 1)\n",
              Net.numSymbols(), Net.numBoxes(), Net.ballsPerBox());
  std::printf("nodes     %llu\n", (unsigned long long)Net.numNodes());
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
               "usage: scg_explorer info|route|schedule|dot|certify "
               "<kind> <l> <n> [args...]\n");
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 5) {
    usage();
    return 2;
  }
  SuperCayleyGraph Net = SuperCayleyGraph::create(
      parseKind(Argv[2]), std::atoi(Argv[3]), std::atoi(Argv[4]));
  if (!std::strcmp(Argv[1], "info"))
    return cmdInfo(Net);
  if (!std::strcmp(Argv[1], "route") && Argc >= 7)
    return cmdRoute(Net, Argv[5], Argv[6]);
  if (!std::strcmp(Argv[1], "schedule"))
    return cmdSchedule(Net);
  if (!std::strcmp(Argv[1], "dot"))
    return cmdDot(Net);
  if (!std::strcmp(Argv[1], "certify"))
    return cmdCertify(Net);
  usage();
  return 2;
}
