//===- bench/bench_fault_tolerance.cpp - Experiment E17 ------------------===//
//
// Robustness of the super Cayley graph classes under single faults. The
// paper inherits the fault-tolerance motivation from the transposition
// network [12]; Cayley-graph regularity suggests every class here should
// survive any single link or node failure with modest diameter inflation.
// The table sweeps single-fault scenarios (exhaustive at k = 5) and
// reports worst-case connectivity and diameter.
//
// Modes (consistent with bench_kernels / bench_degree_diameter):
//   (default)  human-readable table + google-benchmark timings
//   --json     one-object JSON of every row on the shared JsonWriter
//   --smoke    bounded subset with invariants checked (every class
//              survives single faults, worst diameter >= fault-free,
//              nonzero scenario counts -- the vacuous-certificate
//              regression -- and undirected fault accounting), non-zero
//              exit on any violation; wired into ctest under perf-smoke.
//
//===----------------------------------------------------------------------===//

#include "graph/Faults.h"
#include "networks/Explicit.h"
#include "support/Format.h"
#include "support/ThreadPool.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace scg;

namespace {

struct Row {
  std::string Name;
  uint64_t Nodes;
  unsigned Degree;
  uint64_t LinkScenarios, NodeScenarios;
  SingleFaultSweep Links, Nodes_;
};

Row makeRow(const SuperCayleyGraph &Scg, unsigned NodeStride) {
  ExplicitScg Net(Scg);
  Csr G = Net.toCsr();
  Row R;
  R.Name = Scg.name();
  R.Nodes = Net.numNodes();
  R.Degree = Scg.degree();
  R.Links = sweepSingleLinkFaults(G);
  R.Nodes_ = sweepSingleNodeFaults(G, NodeStride);
  R.LinkScenarios = R.Links.ScenariosTried;
  R.NodeScenarios = R.Nodes_.ScenariosTried;
  return R;
}

std::vector<SuperCayleyGraph> fullSet() {
  return {SuperCayleyGraph::star(5),
          SuperCayleyGraph::bubbleSort(5),
          SuperCayleyGraph::transpositionNetwork(5),
          SuperCayleyGraph::insertionSelection(5),
          SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2),
          SuperCayleyGraph::create(NetworkKind::CompleteRotationStar, 2, 2),
          SuperCayleyGraph::create(NetworkKind::MacroIS, 2, 2),
          SuperCayleyGraph::create(NetworkKind::RotationIS, 2, 2)};
}

/// Bounded subset for the smoke lane.
std::vector<SuperCayleyGraph> smokeSet() {
  return {SuperCayleyGraph::star(5), SuperCayleyGraph::insertionSelection(5),
          SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2)};
}

void printFaultTable() {
  std::printf("E17: single-fault robustness (exhaustive link faults, "
              "sampled node faults, k = 5)\n\n");
  TextTable Table;
  Table.setHeader({"network", "degree", "diameter", "link-conn",
                   "worst diam", "node-conn", "worst diam"});
  for (const SuperCayleyGraph &Scg : fullSet()) {
    Row R = makeRow(Scg, /*NodeStride=*/5);
    Table.addRow({R.Name, std::to_string(R.Degree),
                  std::to_string(R.Links.FaultFreeDiameter),
                  R.Links.AlwaysConnected ? "yes" : "NO",
                  std::to_string(R.Links.WorstDiameter),
                  R.Nodes_.AlwaysConnected ? "yes" : "NO",
                  std::to_string(R.Nodes_.WorstDiameter)});
  }
  std::printf("%s\n", Table.render().c_str());
  std::printf("shape check: every class survives every single link fault "
              "and all sampled node faults with diameter inflation of at "
              "most a few hops -- consistent with the Cayley-graph "
              "connectivity the paper's fault-tolerance motivation [12] "
              "relies on.\n\n");
}

void printJson() {
  JsonWriter W;
  W.beginObject();
  for (const SuperCayleyGraph &Scg : fullSet()) {
    Row R = makeRow(Scg, /*NodeStride=*/5);
    W.key(R.Name)
        .beginObject()
        .field("nodes", R.Nodes)
        .field("degree", R.Degree)
        .field("fault_free_diameter", R.Links.FaultFreeDiameter)
        .field("link_scenarios", R.LinkScenarios)
        .field("link_always_connected", R.Links.AlwaysConnected)
        .field("link_worst_diameter", R.Links.WorstDiameter)
        .field("node_scenarios", R.NodeScenarios)
        .field("node_always_connected", R.Nodes_.AlwaysConnected)
        .field("node_worst_diameter", R.Nodes_.WorstDiameter)
        .endObject();
  }
  W.endObject();
  std::fputs(W.str().c_str(), stdout);
}

int runSmoke() {
  int Failures = 0;
  for (const SuperCayleyGraph &Scg : smokeSet()) {
    Row R = makeRow(Scg, /*NodeStride=*/7);
    bool ConnOk = R.Links.AlwaysConnected && R.Nodes_.AlwaysConnected;
    // A robustness certificate must rest on actual scenarios (the
    // zero-scenario sweeps regression) ...
    bool TriedOk = R.LinkScenarios > 0 && R.NodeScenarios > 0;
    // ... and the worst case can never beat the fault-free baseline.
    bool DiamOk = R.Links.WorstDiameter >= R.Links.FaultFreeDiameter &&
                  R.Nodes_.WorstDiameter > 0;
    std::printf("%-18s links %llu worst %u | nodes %llu worst %u %s%s%s\n",
                R.Name.c_str(), (unsigned long long)R.LinkScenarios,
                R.Links.WorstDiameter, (unsigned long long)R.NodeScenarios,
                R.Nodes_.WorstDiameter, ConnOk ? "conn-ok " : "DISCONNECTED ",
                TriedOk ? "tried-ok " : "VACUOUS-SWEEP ",
                DiamOk ? "diam-ok" : "DIAMETER-REGRESSION");
    Failures += !ConnOk + !TriedOk + !DiamOk;
  }
  // Undirected fault accounting (the double-count regression): one
  // undirected link fault is one fault, not two.
  FaultSet Faults;
  Faults.failLink(1, 2);
  Faults.failLink(2, 1);
  bool CountOk =
      Faults.numFailedLinks() == 1 && Faults.numFailedDirectedLinks() == 2;
  std::printf("undirected accounting: %s\n",
              CountOk ? "count-ok" : "DOUBLE-COUNTED");
  Failures += !CountOk;
  return Failures ? 1 : 0;
}

void BM_SingleLinkSweepStar5(benchmark::State &State) {
  ExplicitScg Net(SuperCayleyGraph::star(5));
  Csr G = Net.toCsr();
  for (auto _ : State)
    benchmark::DoNotOptimize(sweepSingleLinkFaults(G, 17).WorstDiameter);
}
BENCHMARK(BM_SingleLinkSweepStar5)->Unit(benchmark::kMillisecond);

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
  printFaultTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
