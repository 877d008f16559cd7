//===- examples/quickstart.cpp - First steps with the library ------------===//
//
// Builds a macro-star network MS(2,3), inspects it, routes a packet by
// solving the ball-arrangement game, and prints the all-port emulation
// schedule of Theorem 4 (the Figure 1 construction).
//
// Run:  build/examples/quickstart
//
//===----------------------------------------------------------------------===//

#include "core/SuperCayleyGraph.h"
#include "emulation/FigureOne.h"
#include "query/QueryEngine.h"
#include "routing/BagSolver.h"

#include <cstdio>

using namespace scg;

int main() {
  // 1. Build a super Cayley graph: 2 boxes of 3 balls, k = 7 symbols.
  SuperCayleyGraph Net = SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 3);
  std::printf("network    %s\n", Net.name().c_str());
  std::printf("nodes      %llu\n", (unsigned long long)Net.numNodes());
  std::printf("degree     %u\n", Net.degree());
  std::printf("links      ");
  for (const Generator &G : Net.generators())
    std::printf("%s ", G.Name.c_str());
  std::printf("\n\n");

  // 2. Route between two configurations of the ball-arrangement game.
  Permutation Src = Permutation::parseOneBased("4 2 6 1 7 3 5");
  Permutation Dst = Permutation::identity(7);
  std::printf("solving the ball-arrangement game\n");
  std::printf("  from  %s\n", Src.strBoxes(3).c_str());
  std::printf("  to    %s\n", Dst.strBoxes(3).c_str());

  // The query engine lifts the optimal star route through the emulation
  // templates of Theorems 1-3.
  GeneratorPath Lifted(QueryEngine(Net).route(Src, Dst).Hops);
  std::printf("  lifted star route (%u hops):  %s\n", Lifted.length(),
              Lifted.str(Net).c_str());

  if (auto Optimal = solveBag(Net, Src, Dst))
    std::printf("  optimal route     (%u hops):  %s\n\n", Optimal->length(),
                Optimal->str(Net).c_str());

  // 3. The Theorem 4 all-port emulation schedule.
  std::printf("%s\n", renderFigureOne(Net).c_str());
  return 0;
}
