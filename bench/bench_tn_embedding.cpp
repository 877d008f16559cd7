//===- bench/bench_tn_embedding.cpp - Experiments E8-E9 ------------------===//
//
// Reproduces Theorems 6 and 7: embedding the k-dimensional transposition
// network into super Cayley graphs with load 1, expansion 1, and dilation
// 5 (l = 2) / 7 (l >= 3) on MS and complete-RS, 6 on IS, O(1) on MIS and
// complete-RIS. Small hosts are measured exactly (every one of the
// k! * k(k-1) directed TN edges routed); larger hosts report the template
// dilation, which is source-independent by vertex symmetry.
//
//===----------------------------------------------------------------------===//

#include "embedding/PathTemplates.h"
#include "embedding/TnEmbeddings.h"
#include "networks/Explicit.h"
#include "support/Format.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace scg;

namespace {

void addMeasuredRow(TextTable &Table, const SuperCayleyGraph &Host) {
  SuperCayleyGraph Tn =
      SuperCayleyGraph::transpositionNetwork(Host.numSymbols());
  Csr Guest = ExplicitScg(Tn).toCsr();
  PathTemplateMap Map = PathTemplateMap::create(Tn, Host);
  EmbeddingMetrics M = measureEmbedding(Guest, templateEmbedding(Map));
  Table.addRow({Tn.name() + " -> " + Host.name(), "exact",
                std::to_string(M.Load), formatDouble(M.Expansion, 1),
                std::to_string(M.Dilation),
                std::to_string(paperTnDilationBound(Host)),
                std::to_string(M.Congestion), M.Valid ? "yes" : "NO"});
}

void addTemplateRow(TextTable &Table, const SuperCayleyGraph &Host) {
  unsigned K = Host.numSymbols();
  unsigned MaxLen = 0;
  for (unsigned I = 1; I != K; ++I)
    for (unsigned J = I + 1; J <= K; ++J)
      MaxLen = std::max(MaxLen, tnPairPath(Host, I, J).length());
  Table.addRow({"TN(" + std::to_string(K) + ") -> " + Host.name(),
                "template", "1", "1.0", std::to_string(MaxLen),
                std::to_string(paperTnDilationBound(Host)), "-", "yes"});
}

void printTnTable() {
  std::printf("E8-E9: transposition-network embeddings (Theorems 6-7)\n\n");
  TextTable Table;
  Table.setHeader({"embedding", "mode", "load", "expansion", "dilation",
                   "paper", "congestion", "valid"});
  addMeasuredRow(Table, SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2));
  addMeasuredRow(Table,
                 SuperCayleyGraph::create(NetworkKind::CompleteRotationStar,
                                          2, 2));
  addMeasuredRow(Table, SuperCayleyGraph::create(NetworkKind::MacroStar, 3, 2));
  addMeasuredRow(Table, SuperCayleyGraph::insertionSelection(6));
  addMeasuredRow(Table, SuperCayleyGraph::create(NetworkKind::MacroIS, 2, 2));
  addMeasuredRow(Table, SuperCayleyGraph::star(6));

  addTemplateRow(Table,
                 SuperCayleyGraph::create(NetworkKind::MacroStar, 4, 3));
  addTemplateRow(Table,
                 SuperCayleyGraph::create(NetworkKind::MacroStar, 8, 8));
  addTemplateRow(Table, SuperCayleyGraph::create(
                            NetworkKind::CompleteRotationStar, 10, 5));
  addTemplateRow(Table, SuperCayleyGraph::insertionSelection(40));
  addTemplateRow(Table, SuperCayleyGraph::create(NetworkKind::MacroIS, 7, 6));
  addTemplateRow(Table, SuperCayleyGraph::create(
                            NetworkKind::CompleteRotationIS, 9, 4));
  std::printf("%s\n", Table.render().c_str());
  std::printf("shape check: dilation 5 at l = 2 and 7 at l >= 3 for "
              "MS/complete-RS at every size; 6 into IS; bounded constant "
              "(<= 10) into MIS/complete-RIS. Load and expansion are 1 "
              "(the node map is the identity on S_k).\n\n");
}

void BM_TnTemplateConstruction(benchmark::State &State) {
  SuperCayleyGraph Host = SuperCayleyGraph::create(NetworkKind::MacroStar,
                                                   State.range(0), 4);
  unsigned K = Host.numSymbols();
  for (auto _ : State) {
    unsigned Total = 0;
    for (unsigned I = 1; I != K; ++I)
      for (unsigned J = I + 1; J <= K; ++J)
        Total += tnPairPath(Host, I, J).length();
    benchmark::DoNotOptimize(Total);
  }
}
BENCHMARK(BM_TnTemplateConstruction)->Arg(3)->Arg(6)->Arg(12);

void BM_MeasureTnIntoMs22(benchmark::State &State) {
  SuperCayleyGraph Host = SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2);
  SuperCayleyGraph Tn = SuperCayleyGraph::transpositionNetwork(5);
  Csr Guest = ExplicitScg(Tn).toCsr();
  for (auto _ : State) {
    PathTemplateMap Map = PathTemplateMap::create(Tn, Host);
    benchmark::DoNotOptimize(
        measureEmbedding(Guest, templateEmbedding(Map)).Dilation);
  }
}
BENCHMARK(BM_MeasureTnIntoMs22)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  printTnTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
