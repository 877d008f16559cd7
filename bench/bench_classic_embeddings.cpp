//===- bench/bench_classic_embeddings.cpp - Experiments E10-E12 ----------===//
//
// Reproduces Corollaries 4-7: trees, hypercubes, and meshes into super
// Cayley graphs, each built as a base embedding into the star graph (or
// transposition network) composed with the Theorem 1-3 / 6-7 templates:
//
//   E10 (Cor 4): complete binary tree -> star (searched), then IS/MS/MIS.
//   E11 (Cor 5): hypercube -> star (commuting transpositions), composed.
//   E12 (Cor 6/7): SJT mesh -> TN (dilation 1) and Lehmer mesh -> star
//                  (dilation 3), composed.
//
//===----------------------------------------------------------------------===//

#include "embedding/HypercubeEmbedding.h"
#include "embedding/MeshEmbeddings.h"
#include "embedding/PathTemplates.h"
#include "embedding/TreeEmbedding.h"
#include "networks/Classic.h"
#include "support/Format.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace scg;

namespace {

void addComposedRows(TextTable &Table, const std::string &GuestName,
                     const Csr &Guest, const SuperCayleyGraph &Base,
                     const Embedding &BaseEmbedding, unsigned BaseDilation) {
  unsigned K = Base.numSymbols();
  struct HostSpec {
    SuperCayleyGraph Net;
    const char *Claim;
  };
  std::vector<HostSpec> Hosts;
  if (Base.kind() == NetworkKind::Star) {
    Hosts.push_back({SuperCayleyGraph::insertionSelection(K), "2x base"});
    if ((K - 1) % 2 == 0) {
      Hosts.push_back({SuperCayleyGraph::create(NetworkKind::MacroStar,
                                                (K - 1) / 2, 2),
                       "3x base"});
      Hosts.push_back({SuperCayleyGraph::create(NetworkKind::MacroIS,
                                                (K - 1) / 2, 2),
                       "4x base"});
    }
  } else {
    Hosts.push_back({SuperCayleyGraph::create(NetworkKind::MacroStar,
                                              (K - 1) / 2, 2),
                     "Thm 6"});
    Hosts.push_back({SuperCayleyGraph::create(NetworkKind::MacroIS,
                                              (K - 1) / 2, 2),
                     "Thm 7"});
  }

  // The base itself.
  EmbeddingMetrics BaseMetrics = measureEmbedding(Guest, BaseEmbedding);
  Table.addRow({GuestName, Base.name(), std::to_string(BaseMetrics.Load),
                std::to_string(BaseMetrics.Dilation),
                std::to_string(BaseDilation),
                BaseMetrics.Valid ? "yes" : "NO"});

  for (const HostSpec &Spec : Hosts) {
    PathTemplateMap Map = PathTemplateMap::create(Base, Spec.Net);
    EmbeddingMetrics M =
        measureEmbedding(Guest, composeEmbedding(BaseEmbedding, Map));
    Table.addRow({GuestName, Spec.Net.name() + " (" + Spec.Claim + ")",
                  std::to_string(M.Load), std::to_string(M.Dilation),
                  std::to_string(BaseDilation * Map.maxTemplateLength()),
                  M.Valid ? "yes" : "NO"});
  }
}

void printTreeRows(TextTable &Table) {
  SuperCayleyGraph Star = SuperCayleyGraph::star(5);
  ExplicitScg StarX(Star);
  for (unsigned Height : {3u, 4u}) {
    TreeEmbeddingResult R = embedTreeIntoStar(StarX, Height, 1);
    if (!R.Found)
      continue;
    Csr Guest = completeBinaryTree(Height);
    addComposedRows(Table, "CBT(h=" + std::to_string(Height) + ")", Guest,
                    Star, R.E, 1);
  }
}

void printHypercubeRows(TextTable &Table) {
  SuperCayleyGraph Star = SuperCayleyGraph::star(7);
  Embedding Base = embedHypercubeIntoStar(Star);
  Csr Guest = hypercube(hypercubeDimensionFor(7));
  addComposedRows(Table, "Q3", Guest, Star, Base, 3);
}

void printMeshRows(TextTable &Table) {
  {
    SuperCayleyGraph Tn = SuperCayleyGraph::transpositionNetwork(5);
    SjtMeshShape Shape = sjtMeshShape(5);
    Csr Guest = mesh2D(Shape.Rows, Shape.Cols);
    addComposedRows(Table, "24x5 mesh (SJT)", Guest, Tn,
                    embedSjtMeshIntoTn(Tn), 1);
  }
  {
    SuperCayleyGraph Star = SuperCayleyGraph::star(5);
    Csr Guest = mixedRadixMesh(lehmerMeshDims(5));
    addComposedRows(Table, "2x3x4x5 mesh", Guest, Star,
                    embedLehmerMeshIntoStar(Star), 3);
  }
}

void printClassicTable() {
  std::printf("E10-E12: tree, hypercube, and mesh embeddings "
              "(Corollaries 4-7)\n\n");
  TextTable Table;
  Table.setHeader({"guest", "host", "load", "dilation", "claim cap",
                   "valid"});
  printTreeRows(Table);
  printHypercubeRows(Table);
  printMeshRows(Table);
  std::printf("%s\n", Table.render().c_str());
  std::printf("shape check: every composed dilation stays within base "
              "dilation x template length, with load 1 throughout -- the "
              "O(1)-dilation structure of Corollaries 4-7. The hypercube "
              "base uses the commuting-transposition substitute of "
              "DESIGN.md (d = floor((k-1)/2), dilation 3).\n\n");
}

void BM_TreeSearchHeight4(benchmark::State &State) {
  ExplicitScg Star(SuperCayleyGraph::star(5));
  for (auto _ : State)
    benchmark::DoNotOptimize(embedTreeIntoStar(Star, 4, 1).Found);
}
BENCHMARK(BM_TreeSearchHeight4)->Unit(benchmark::kMillisecond);

void BM_SjtMeshEmbedding(benchmark::State &State) {
  SuperCayleyGraph Tn = SuperCayleyGraph::transpositionNetwork(6);
  SjtMeshShape Shape = sjtMeshShape(6);
  Csr Guest = mesh2D(Shape.Rows, Shape.Cols);
  for (auto _ : State)
    benchmark::DoNotOptimize(
        measureEmbedding(Guest, embedSjtMeshIntoTn(Tn)).Dilation);
}
BENCHMARK(BM_SjtMeshEmbedding)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  printClassicTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
