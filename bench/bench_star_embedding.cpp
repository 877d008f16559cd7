//===- bench/bench_star_embedding.cpp - Experiment E14 -------------------===//
//
// Reproduces the Section 3 embedding numbers for the star graph into super
// Cayley graphs: dilation 2/3/4, total congestion max(2n, l) (1 for IS),
// and the per-dimension congestion claim (2 for dimensions j > n+1, 1
// otherwise) that underlies the "slowdown approximately 2 with wormhole
// routing" remark.
//
//===----------------------------------------------------------------------===//

#include "embedding/StarEmbeddings.h"
#include "networks/Explicit.h"
#include "support/Format.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace scg;

namespace {

void addRow(TextTable &Table, const SuperCayleyGraph &Host) {
  SuperCayleyGraph Star = SuperCayleyGraph::star(Host.numSymbols());
  Csr Guest = ExplicitScg(Star).toCsr();
  EmbeddingMetrics M = measureEmbedding(Guest, embedStarInto(Star, Host));
  Table.addRow({Star.name() + " -> " + Host.name(), std::to_string(M.Load),
                std::to_string(M.Dilation),
                std::to_string(paperStarDilationBound(Host)),
                std::to_string(M.Congestion),
                std::to_string(paperStarCongestionBound(Host)),
                M.Valid ? "yes" : "NO"});
}

void printStarTable() {
  std::printf("E14: star-graph embeddings into super Cayley graphs "
              "(Section 3)\n\n");
  TextTable Table;
  Table.setHeader({"embedding", "load", "dilation", "paper dil",
                   "congestion", "paper cong", "valid"});
  addRow(Table, SuperCayleyGraph::insertionSelection(6));
  addRow(Table, SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2));
  addRow(Table, SuperCayleyGraph::create(NetworkKind::MacroStar, 3, 2));
  addRow(Table, SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 3));
  addRow(Table,
         SuperCayleyGraph::create(NetworkKind::CompleteRotationStar, 3, 2));
  addRow(Table, SuperCayleyGraph::create(NetworkKind::MacroIS, 2, 2));
  addRow(Table,
         SuperCayleyGraph::create(NetworkKind::CompleteRotationIS, 3, 2));
  std::printf("%s\n", Table.render().c_str());

  std::printf("per-dimension congestion (Section 3: 2 when j > n+1, else "
              "1)\n\n");
  TextTable PerDim;
  PerDim.setHeader({"host", "dimension j", "congestion", "paper"});
  for (NetworkKind Kind :
       {NetworkKind::MacroStar, NetworkKind::CompleteRotationStar,
        NetworkKind::MacroIS}) {
    SuperCayleyGraph Host = SuperCayleyGraph::create(Kind, 2, 3);
    for (unsigned J = 2; J <= Host.numSymbols(); ++J)
      PerDim.addRow({Host.name(), std::to_string(J),
                     std::to_string(starDimensionCongestion(Host, J)),
                     J > Host.ballsPerBox() + 1 ? "2" : "1"});
  }
  std::printf("%s\n", PerDim.render().c_str());
}

void BM_StarEmbeddingMeasurement(benchmark::State &State) {
  SuperCayleyGraph Host = SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2);
  SuperCayleyGraph Star = SuperCayleyGraph::star(5);
  Csr Guest = ExplicitScg(Star).toCsr();
  for (auto _ : State)
    benchmark::DoNotOptimize(
        measureEmbedding(Guest, embedStarInto(Star, Host)).Congestion);
}
BENCHMARK(BM_StarEmbeddingMeasurement)->Unit(benchmark::kMillisecond);

void BM_PerDimensionCongestion(benchmark::State &State) {
  SuperCayleyGraph Host = SuperCayleyGraph::create(NetworkKind::MacroStar, 3, 2);
  for (auto _ : State)
    benchmark::DoNotOptimize(starDimensionCongestion(Host, 7));
}
BENCHMARK(BM_PerDimensionCongestion)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  printStarTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
