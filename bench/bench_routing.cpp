//===- bench/bench_routing.cpp - Experiment E16 (Section 2 routing) ------===//
//
// Quantifies "routing = solving the ball-arrangement game" (Section 2):
// for each network class, average/maximum unicast route lengths of the
// lifted star router (Theorems 1-3) before and after peephole
// simplification, against the exact shortest paths (BagSolver) and the
// network diameter. Also reports the insertion-sort rotator router for
// the rotator graph, where star lifting does not apply. Both routers are
// served by QueryEngine.
//
// With --json, prints the permutation-traffic section as one JSON object
// instead: per network/pattern completion numbers plus the per-step time
// series a MetricsObserver collects through simulatePermutationRouting's
// observer hook. Deterministic (fixed seeds, no wall times).
//
//===----------------------------------------------------------------------===//

#include "comm/PermutationRouting.h"
#include "comm/SimObserver.h"
#include "emulation/SdcEmulation.h"
#include "graph/Metrics.h"
#include "networks/Explicit.h"
#include "perm/Lehmer.h"
#include "query/QueryEngine.h"
#include "routing/BagSolver.h"
#include "routing/RotatorRouter.h"
#include "routing/RouteOptimizer.h"
#include "support/Format.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>

using namespace scg;

namespace {

/// An engine that routes each query afresh, so the timers measure routing.
QueryEngine uncachedEngine(const SuperCayleyGraph &Scg) {
  QueryEngineOptions Opts;
  Opts.CacheCapacity = 0;
  return QueryEngine(Scg, Opts);
}

void addLiftedRow(TextTable &Table, const SuperCayleyGraph &Scg,
                  unsigned Samples) {
  ExplicitScg Net(Scg);
  QueryEngine Engine(Scg);
  DistanceStats Stats = vertexTransitiveStats(Net.toCsr());
  SplitMix64 Rng(0x5C6);
  uint64_t LiftedSum = 0, SimplifiedSum = 0, OptimalSum = 0;
  unsigned LiftedMax = 0, SimplifiedMax = 0;
  unsigned K = Scg.numSymbols();
  Permutation Id = Permutation::identity(K);
  for (unsigned S = 0; S != Samples; ++S) {
    Permutation Dst = unrankPermutation(Rng.nextBelow(factorial(K)), K);
    GeneratorPath Lifted(Engine.route(Id, Dst).Hops);
    GeneratorPath Simplified = simplifyPath(Scg, Lifted);
    std::optional<GeneratorPath> Optimal = solveBag(Scg, Id, Dst);
    LiftedSum += Lifted.length();
    SimplifiedSum += Simplified.length();
    OptimalSum += Optimal->length();
    LiftedMax = std::max(LiftedMax, Lifted.length());
    SimplifiedMax = std::max(SimplifiedMax, Simplified.length());
  }
  double Inv = 1.0 / Samples;
  Table.addRow({Scg.name(), std::to_string(Stats.Diameter),
                formatDouble(LiftedSum * Inv, 2),
                formatDouble(SimplifiedSum * Inv, 2),
                formatDouble(OptimalSum * Inv, 2),
                std::to_string(LiftedMax), std::to_string(SimplifiedMax)});
}

void printRoutingTable() {
  std::printf("E16: unicast routing quality (Section 2 / Theorems 1-3)\n\n");
  TextTable Table;
  Table.setHeader({"network", "diameter", "avg lifted", "avg simplified",
                   "avg optimal", "max lifted", "max simplified"});
  addLiftedRow(Table, SuperCayleyGraph::star(6), 300);
  addLiftedRow(Table, SuperCayleyGraph::insertionSelection(6), 300);
  addLiftedRow(Table, SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 3),
               300);
  addLiftedRow(Table,
               SuperCayleyGraph::create(NetworkKind::CompleteRotationStar, 3,
                                        2),
               300);
  addLiftedRow(Table, SuperCayleyGraph::create(NetworkKind::MacroIS, 3, 2),
               200);
  std::printf("%s\n", Table.render().c_str());

  std::printf("rotator-graph routing (insertion-sort router vs exact)\n\n");
  TextTable Rot;
  Rot.setHeader({"network", "diameter", "avg router", "avg optimal",
                 "max router", "bound"});
  for (unsigned K : {4u, 5u, 6u}) {
    SuperCayleyGraph Scg = SuperCayleyGraph::rotator(K);
    ExplicitScg Net(Scg);
    QueryEngine Engine(Scg);
    DistanceStats Stats = vertexTransitiveStats(Net.toCsr());
    SplitMix64 Rng(0x707);
    uint64_t RouteSum = 0, OptSum = 0;
    unsigned RouteMax = 0;
    unsigned Samples = 200;
    Permutation Id = Permutation::identity(K);
    for (unsigned S = 0; S != Samples; ++S) {
      Permutation Dst = unrankPermutation(Rng.nextBelow(factorial(K)), K);
      unsigned Length = Engine.route(Id, Dst).length();
      RouteSum += Length;
      RouteMax = std::max(RouteMax, Length);
      OptSum += solveBag(Scg, Id, Dst)->length();
    }
    Rot.addRow({Scg.name(), std::to_string(Stats.Diameter),
                formatDouble(double(RouteSum) / Samples, 2),
                formatDouble(double(OptSum) / Samples, 2),
                std::to_string(RouteMax),
                std::to_string(rotatorRouteBound(K))});
  }
  std::printf("%s\n", Rot.render().c_str());

  // Permutation traffic: the uniform-load claim of the conclusion
  // ("the expected traffic is balanced on all links") and contention
  // behavior under adversarial and random permutations.
  std::printf("permutation traffic (all-port, lifted routes)\n\n");
  TextTable Perm;
  Perm.setHeader({"network", "pattern", "steps", "lower bd", "ratio",
                  "max link load"});
  for (auto Scg : {SuperCayleyGraph::star(6),
                   SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2),
                   SuperCayleyGraph::insertionSelection(5)}) {
    ExplicitScg Net(Scg);
    struct Case {
      const char *Name;
      TrafficPattern Pattern;
    };
    std::vector<Case> Cases;
    Cases.push_back({"random", randomTraffic(Net, 0xF00D)});
    Cases.push_back({"reversal", reversalTraffic(Net)});
    Cases.push_back({"translate", translationTraffic(Net, 0)});
    for (const Case &C : Cases) {
      PermutationRoutingResult R =
          simulatePermutationRouting(Net, C.Pattern);
      Perm.addRow({Scg.name(), C.Name, std::to_string(R.Steps),
                   std::to_string(R.LowerBound), formatDouble(R.Ratio, 2),
                   std::to_string(R.MaxLinkLoad)});
    }
  }
  std::printf("%s\n", Perm.render().c_str());
}

/// --json: the permutation-traffic experiment with instrumented runs.
void printPermutationJson() {
  struct Case {
    const char *Name;
    TrafficPattern Pattern;
  };
  JsonWriter W;
  W.beginObject();
  for (auto Scg : {SuperCayleyGraph::star(6),
                   SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2),
                   SuperCayleyGraph::insertionSelection(5)}) {
    ExplicitScg Net(Scg);
    std::vector<Case> Cases;
    Cases.push_back({"random", randomTraffic(Net, 0xF00D)});
    Cases.push_back({"reversal", reversalTraffic(Net)});
    Cases.push_back({"translate", translationTraffic(Net, 0)});
    for (size_t I = 0; I != Cases.size(); ++I) {
      MetricsRegistry Registry;
      MetricsObserver Metrics(Registry);
      ModelInvariantChecker Checker;
      PermutationRoutingResult R = simulatePermutationRouting(
          Net, Cases[I].Pattern, CommModel::AllPort, {&Metrics, &Checker});
      W.key(Scg.name() + "/" + Cases[I].Name)
          .beginObject()
          .field("steps", R.Steps)
          .field("lower_bound", R.LowerBound)
          .field("ratio", R.Ratio, 4)
          .field("max_link_load", R.MaxLinkLoad)
          .field("invariants", Checker.clean() ? "clean" : "VIOLATED")
          .key("metrics")
          .rawValue(Registry.toJson(64))
          .endObject();
    }
  }
  W.endObject();
  std::fputs(W.str().c_str(), stdout);
}

void BM_LiftedRoute(benchmark::State &State) {
  QueryEngine Engine = uncachedEngine(
      SuperCayleyGraph::create(NetworkKind::MacroStar, 4, 3));
  SplitMix64 Rng(1);
  Permutation Id = Permutation::identity(13);
  for (auto _ : State) {
    Permutation Dst = unrankPermutation(Rng.nextBelow(factorial(13)), 13);
    benchmark::DoNotOptimize(Engine.route(Id, Dst).length());
  }
}
BENCHMARK(BM_LiftedRoute);

void BM_SimplifyRoute(benchmark::State &State) {
  SuperCayleyGraph Ms = SuperCayleyGraph::create(NetworkKind::MacroStar, 4, 3);
  SplitMix64 Rng(2);
  Permutation Id = Permutation::identity(13);
  Permutation Dst = unrankPermutation(Rng.nextBelow(factorial(13)), 13);
  GeneratorPath Route(QueryEngine(Ms).route(Id, Dst).Hops);
  for (auto _ : State)
    benchmark::DoNotOptimize(simplifyPath(Ms, Route).length());
}
BENCHMARK(BM_SimplifyRoute);

void BM_RotatorRoute(benchmark::State &State) {
  unsigned K = unsigned(State.range(0));
  QueryEngine Engine = uncachedEngine(SuperCayleyGraph::rotator(K));
  SplitMix64 Rng(3);
  Permutation Id = Permutation::identity(K);
  for (auto _ : State) {
    Permutation Dst = unrankPermutation(Rng.nextBelow(factorial(K)), K);
    benchmark::DoNotOptimize(Engine.route(Id, Dst).length());
  }
}
BENCHMARK(BM_RotatorRoute)->Arg(8)->Arg(12);

} // namespace

int main(int argc, char **argv) {
  for (int I = 1; I != argc; ++I)
    if (std::strcmp(argv[I], "--json") == 0) {
      printPermutationJson();
      return 0;
    }
  printRoutingTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
