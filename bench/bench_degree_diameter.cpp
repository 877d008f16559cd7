//===- bench/bench_degree_diameter.cpp - Experiment E18 ------------------===//
//
// Reproduces the introduction's "optimal diameters (given their node
// degree)" claim and the mean-distance lower bound step in the proof of
// Corollary 3: every class's measured diameter and average internodal
// distance against the universal Moore bounds DL(degree, N). A bounded
// ratio column is the reproduced result; the star family and the super
// Cayley graphs all sit within a small factor of the universal bound,
// which is what "asymptotically optimal given degree" means here. The
// rotation-exchange network of [23] appears as RS(l,1) (nucleus T_2 plus
// R, R^-1: the trivalent variant).
//
// The diameter/average columns come from the vertex-transitivity shortcut
// (one BFS); an `exact` column recomputes them with the bit-parallel
// MS-BFS all-pairs engine, so the table itself certifies the shortcut on
// every row -- that exact sweep is also what any non-vertex-transitive
// comparison graph would take.
//
// Modes (consistent with bench_kernels / bench_pipelining):
//   (default)  human-readable table + google-benchmark timings
//   --json     one-object JSON of every row (diameter, Moore bounds,
//              ratios, exact-sweep agreement)
//   --smoke    bounded subset with invariants checked (exact == shortcut,
//              diameter >= DL, mean >= Moore mean bound), non-zero exit on
//              any violation; wired into ctest under perf-smoke.
//
//===----------------------------------------------------------------------===//

#include "graph/Metrics.h"
#include "graph/MooreBounds.h"
#include "graph/MsBfs.h"
#include "networks/Explicit.h"
#include "support/Format.h"
#include "support/ThreadPool.h"

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace scg;

namespace {

/// One comparison row: measured distances (shortcut + exact bit-parallel
/// sweep) against the universal degree bounds.
struct Row {
  std::string Name;
  uint64_t Nodes;
  unsigned Degree;
  uint32_t Diameter;      ///< vertex-transitive shortcut (one BFS).
  uint32_t ExactDiameter; ///< MS-BFS all-pairs sweep.
  unsigned Dl;            ///< Moore diameter lower bound.
  double AvgDist;
  double ExactAvgDist;
  double MeanLb;          ///< Moore mean-distance lower bound.
};

Row makeRow(const SuperCayleyGraph &Scg) {
  ExplicitScg Net(Scg);
  DistanceStats Stats = vertexTransitiveStats(Net.toGraph());
  DistanceStats Exact = msAllPairsStats(Net.toCsr());
  bool Directed = !Scg.isUndirected();
  Row R;
  R.Name = Scg.name();
  R.Nodes = Net.numNodes();
  R.Degree = Scg.degree();
  R.Diameter = Stats.Diameter;
  R.ExactDiameter = Exact.Diameter;
  R.Dl = mooreDiameterLowerBound(Scg.degree(), Net.numNodes(), Directed);
  R.AvgDist = Stats.AverageDistance;
  R.ExactAvgDist = Exact.AverageDistance;
  R.MeanLb = mooreMeanDistanceLowerBound(Scg.degree(), Net.numNodes(),
                                         Directed);
  return R;
}

std::vector<SuperCayleyGraph> fullSet() {
  std::vector<SuperCayleyGraph> Nets;
  for (unsigned K : {6u, 7u}) {
    Nets.push_back(SuperCayleyGraph::star(K));
    Nets.push_back(SuperCayleyGraph::insertionSelection(K));
  }
  Nets.push_back(SuperCayleyGraph::bubbleSort(6));
  Nets.push_back(SuperCayleyGraph::transpositionNetwork(6));
  Nets.push_back(SuperCayleyGraph::rotator(6));
  Nets.push_back(SuperCayleyGraph::create(NetworkKind::MacroStar, 3, 2));
  Nets.push_back(SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 3));
  Nets.push_back(
      SuperCayleyGraph::create(NetworkKind::CompleteRotationStar, 3, 2));
  Nets.push_back(SuperCayleyGraph::create(NetworkKind::MacroIS, 3, 2));
  // Rotation-exchange network [23]: RS(l, 1), the trivalent variant.
  Nets.push_back(SuperCayleyGraph::create(NetworkKind::RotationStar, 6, 1));
  Nets.push_back(SuperCayleyGraph::create(NetworkKind::RotationStar, 5, 1));
  return Nets;
}

/// Bounded subset for the smoke lane (largest graph: 720 nodes).
std::vector<SuperCayleyGraph> smokeSet() {
  return {SuperCayleyGraph::star(6), SuperCayleyGraph::insertionSelection(6),
          SuperCayleyGraph::rotator(6),
          SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2),
          SuperCayleyGraph::create(NetworkKind::RotationStar, 5, 1)};
}

void printTable() {
  std::printf("E18: diameters and mean distances vs the universal "
              "degree bounds DL(d, N)\n\n");
  TextTable Table;
  Table.setHeader({"network", "N", "deg", "diam", "exact", "DL", "ratio",
                   "avg dist", "mean LB", "ratio"});
  for (const SuperCayleyGraph &Scg : fullSet()) {
    Row R = makeRow(Scg);
    Table.addRow({R.Name, std::to_string(R.Nodes), std::to_string(R.Degree),
                  std::to_string(R.Diameter), std::to_string(R.ExactDiameter),
                  std::to_string(R.Dl),
                  formatDouble(double(R.Diameter) / double(R.Dl), 2),
                  formatDouble(R.AvgDist, 2), formatDouble(R.MeanLb, 2),
                  formatDouble(R.AvgDist / R.MeanLb, 2)});
  }
  std::printf("%s\n", Table.render().c_str());
  std::printf("shape check: diameter ratios stay within ~3x of the Moore "
              "bound across classes (the bubble-sort graph, which the "
              "paper does not call degree-optimal, is visibly worse), "
              "measured mean distances dominate the Corollary 3 "
              "mean-distance bound as required by its proof, and the "
              "`exact` (MS-BFS all-pairs) column certifies the "
              "vertex-transitivity shortcut on every row.\n\n");
}

void printJson() {
  JsonWriter W;
  W.beginObject();
  for (const SuperCayleyGraph &Net : fullSet()) {
    Row R = makeRow(Net);
    W.key(R.Name)
        .beginObject()
        .field("nodes", R.Nodes)
        .field("degree", R.Degree)
        .field("diam", R.Diameter)
        .field("exact_diam", R.ExactDiameter)
        .field("dl", R.Dl)
        .field("avg", R.AvgDist, 6)
        .field("exact_avg", R.ExactAvgDist, 6)
        .field("mean_lb", R.MeanLb, 6)
        .endObject();
  }
  W.endObject();
  std::fputs(W.str().c_str(), stdout);
}

int runSmoke() {
  int Failures = 0;
  for (const SuperCayleyGraph &Scg : smokeSet()) {
    Row R = makeRow(Scg);
    bool ExactOk = R.Diameter == R.ExactDiameter &&
                   std::fabs(R.AvgDist - R.ExactAvgDist) < 1e-9;
    bool DlOk = R.Diameter >= R.Dl;
    bool MeanOk = R.AvgDist >= R.MeanLb;
    std::printf("%-12s N=%-5llu diam %u exact %u DL %u avg %.4f LB %.4f "
                "%s%s%s\n",
                R.Name.c_str(), (unsigned long long)R.Nodes, R.Diameter,
                R.ExactDiameter, R.Dl, R.AvgDist, R.MeanLb,
                ExactOk ? "exact-ok " : "EXACT-MISMATCH ",
                DlOk ? "dl-ok " : "BELOW-MOORE-DL ",
                MeanOk ? "mean-ok" : "BELOW-MOORE-MEAN");
    Failures += !ExactOk + !DlOk + !MeanOk;
  }
  return Failures ? 1 : 0;
}

void BM_MooreDiameterBound(benchmark::State &State) {
  for (auto _ : State)
    benchmark::DoNotOptimize(
        mooreDiameterLowerBound(12, 479001600ull, false));
}
BENCHMARK(BM_MooreDiameterBound);

void BM_MooreMeanBound(benchmark::State &State) {
  for (auto _ : State)
    benchmark::DoNotOptimize(
        mooreMeanDistanceLowerBound(12, 479001600ull, false));
}
BENCHMARK(BM_MooreMeanBound);

} // namespace

int main(int argc, char **argv) {
  bool Json = false, Smoke = false;
  for (int I = 1; I != argc; ++I) {
    Json |= std::strcmp(argv[I], "--json") == 0;
    Smoke |= std::strcmp(argv[I], "--smoke") == 0;
  }
  if (Smoke) {
    setGlobalThreadCount(1);
    return runSmoke();
  }
  if (Json) {
    setGlobalThreadCount(1);
    printJson();
    return 0;
  }
  printTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
