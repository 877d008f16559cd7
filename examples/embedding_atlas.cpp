//===- examples/embedding_atlas.cpp - Section 5 embeddings tour ----------===//
//
// Builds every guest topology of Section 5 (tree, hypercube, SJT mesh,
// Lehmer mesh, transposition network, star graph) and embeds it into a
// chosen super Cayley graph, printing the measured load / expansion /
// dilation / congestion for each.
//
// Usage:  build/examples/embedding_atlas [k]   (default 5, max 7)
//
//===----------------------------------------------------------------------===//

#include "embedding/HypercubeEmbedding.h"
#include "embedding/MeshEmbeddings.h"
#include "embedding/StarEmbeddings.h"
#include "embedding/TreeEmbedding.h"
#include "networks/Classic.h"
#include "support/Format.h"

#include <cstdio>
#include <cstdlib>

using namespace scg;

namespace {

void report(TextTable &Table, const std::string &Guest,
            const std::string &Host, const Csr &G, const Embedding &E) {
  EmbeddingMetrics M = measureEmbedding(G, E);
  Table.addRow({Guest, Host, M.Valid ? "yes" : "NO",
                std::to_string(M.Load), formatDouble(M.Expansion, 2),
                std::to_string(M.Dilation), std::to_string(M.Congestion)});
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned K = Argc > 1 ? std::atoi(Argv[1]) : 5;
  if (K < 4 || K > 7) {
    std::printf("k must be in 4..7\n");
    return 1;
  }

  SuperCayleyGraph Star = SuperCayleyGraph::star(K);
  SuperCayleyGraph Tn = SuperCayleyGraph::transpositionNetwork(K);
  TextTable Table;
  Table.setHeader({"guest", "host", "valid", "load", "expansion",
                   "dilation", "congestion"});

  // Star graph into super Cayley graphs of the same size (Section 3).
  if ((K - 1) % 2 == 0) {
    SuperCayleyGraph Ms =
        SuperCayleyGraph::create(NetworkKind::MacroStar, (K - 1) / 2, 2);
    Csr Guest = ExplicitScg(Star).toCsr();
    report(Table, Star.name(), Ms.name(), Guest, embedStarInto(Star, Ms));
  }
  SuperCayleyGraph Is = SuperCayleyGraph::insertionSelection(K);
  {
    Csr Guest = ExplicitScg(Star).toCsr();
    report(Table, Star.name(), Is.name(), Guest, embedStarInto(Star, Is));
  }

  // Complete binary tree into the star graph (Corollary 4 base case).
  {
    ExplicitScg StarX(Star);
    unsigned Height = K >= 6 ? 4 : 3;
    TreeEmbeddingResult R = embedTreeIntoStar(StarX, Height, 1);
    if (R.Found)
      report(Table, "CBT(h=" + std::to_string(Height) + ")", Star.name(),
             completeBinaryTree(Height), R.E);
  }

  // Hypercube into the star graph (Corollary 5 substitute construction).
  report(Table, "Q" + std::to_string(hypercubeDimensionFor(K)), Star.name(),
         hypercube(hypercubeDimensionFor(K)), embedHypercubeIntoStar(Star));

  // SJT mesh into the transposition network (Corollary 6).
  {
    SjtMeshShape Shape = sjtMeshShape(K);
    report(Table,
           std::to_string(Shape.Rows) + "x" + std::to_string(Shape.Cols) +
               " mesh",
           Tn.name(), mesh2D(Shape.Rows, Shape.Cols),
           embedSjtMeshIntoTn(Tn));
  }

  // Lehmer mesh into the star graph (Corollary 7).
  report(Table, "2x3x...x" + std::to_string(K) + " mesh", Star.name(),
         mixedRadixMesh(lehmerMeshDims(K)), embedLehmerMeshIntoStar(Star));

  std::printf("embedding atlas at k = %u\n\n%s", K, Table.render().c_str());
  return 0;
}
