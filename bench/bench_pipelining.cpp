//===- bench/bench_pipelining.cpp - Experiment E15 -----------------------===//
//
// Reproduces the wormhole/pipelining remark of Section 3: because the
// per-dimension congestion of the star embedding is 2 (dimensions beyond
// the first box) or 1, a node streaming B packets along one emulated star
// dimension completes in about congestion * B + dilation steps, so the
// *streaming* slowdown of MS/complete-RS/MIS over the star approaches 2
// (and IS approaches 1) as B grows -- not the worst-case 3 or 4 of
// Theorems 1 and 3. Every node injects B copies of its dimension-j path
// into the all-port simulator; the table reports steps/B against the
// per-dimension congestion.
//
// Modes:
//   (default)  human-readable E15 table + google-benchmark timings
//   --json     machine-readable one-object JSON on stdout: deterministic
//              simulator workloads across all three communication models
//              with per-step time series from a MetricsObserver (committed
//              as BENCH_simulator.json in the repo root)
//   --smoke    bounded, invariant-checked simulator run: pinned step/
//              occupancy counts across all three models (including the
//              single-port multi-flit serialization fix), observed-vs-
//              unobserved result identity, and ModelInvariantChecker
//              clean; non-zero exit on any failure. Wired into ctest under
//              perf-smoke.
//
//===----------------------------------------------------------------------===//

#include "comm/SimObserver.h"
#include "embedding/StarEmbeddings.h"
#include "emulation/SdcEmulation.h"
#include "support/Format.h"
#include "support/Metrics.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>

using namespace scg;

namespace {

uint64_t streamSteps(const ExplicitScg &Net, unsigned Dim, unsigned Burst) {
  std::vector<GenIndex> Route = starDimensionPath(Net.network(), Dim).hops();
  NetworkSimulator Sim(Net, CommModel::AllPort);
  for (NodeId U = 0; U != Net.numNodes(); ++U)
    for (unsigned B = 0; B != Burst; ++B)
      Sim.injectPacket(U, Route);
  SimulationResult R = Sim.run(/*MaxSteps=*/uint64_t(Burst) * 16 + 64);
  assert(R.Completed && "stream did not drain");
  return R.Steps;
}

void addRows(TextTable &Table, const SuperCayleyGraph &Scg, unsigned Dim) {
  ExplicitScg Net(Scg);
  uint64_t Congestion = starDimensionCongestion(Scg, Dim);
  for (unsigned Burst : {1u, 4u, 16u, 64u}) {
    uint64_t Steps = streamSteps(Net, Dim, Burst);
    Table.addRow({Scg.name(), std::to_string(Dim),
                  std::to_string(Congestion), std::to_string(Burst),
                  std::to_string(Steps),
                  formatDouble(double(Steps) / Burst, 2)});
  }
}

void printPipelining() {
  std::printf("E15: streaming (wormhole-style) emulation slowdown "
              "(Section 3)\n\n");
  TextTable Table;
  Table.setHeader({"network", "dim j", "per-dim cong", "burst B", "steps",
                   "steps/B"});
  addRows(Table, SuperCayleyGraph::star(5), 5);
  addRows(Table, SuperCayleyGraph::insertionSelection(5), 5);
  addRows(Table, SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2), 3);
  addRows(Table, SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2), 5);
  addRows(Table,
          SuperCayleyGraph::create(NetworkKind::CompleteRotationStar, 2, 2),
          5);
  addRows(Table, SuperCayleyGraph::create(NetworkKind::MacroIS, 2, 2), 5);
  std::printf("%s\n", Table.render().c_str());
  std::printf("shape check: steps/B converges to the per-dimension "
              "congestion (1 within the first box or on IS/star, 2 "
              "beyond it), reproducing the 'slowdown approximately 2 "
              "with wormhole or cut-through routing' remark.\n\n");
}

void BM_StreamBurst16(benchmark::State &State) {
  ExplicitScg Net(SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2));
  for (auto _ : State)
    benchmark::DoNotOptimize(streamSteps(Net, 5, 16));
}
BENCHMARK(BM_StreamBurst16)->Unit(benchmark::kMillisecond);

//===----------------------------------------------------------------------===//
// --json / --smoke: instrumented simulator workloads
//===----------------------------------------------------------------------===//

/// Mixed random traffic with every fourth packet multi-flit; the standing
/// deterministic workload of tests/SimObserverTest.cpp and EXPERIMENTS E21.
void injectMixed(NetworkSimulator &Sim, const ExplicitScg &Net,
                 unsigned Count, uint64_t Seed) {
  SplitMix64 Rng(Seed);
  for (unsigned P = 0; P != Count; ++P) {
    NodeId Src = Rng.nextBelow(Net.numNodes());
    unsigned Len = 1 + Rng.nextBelow(5);
    std::vector<GenIndex> Route;
    for (unsigned H = 0; H != Len; ++H)
      Route.push_back(Rng.nextBelow(Net.degree()));
    Sim.injectPacket(Src, Route, P % 4 == 0 ? 1 + P % 3 : 1);
  }
}

const char *modelName(CommModel Model) {
  switch (Model) {
  case CommModel::AllPort:
    return "all_port";
  case CommModel::SinglePort:
    return "single_port";
  case CommModel::SingleDimension:
    return "single_dimension";
  }
  return "?";
}

/// One instrumented run of the mixed star(5) workload under \p Model,
/// appended to \p W as a JSON member: result scalars plus the sampled
/// time series.
void jsonWorkload(JsonWriter &W, CommModel Model) {
  ExplicitScg Net(SuperCayleyGraph::star(5));
  NetworkSimulator Sim(Net, Model);
  injectMixed(Sim, Net, 150, 7);
  MetricsRegistry Registry;
  MetricsObserver Metrics(Registry);
  ModelInvariantChecker Checker;
  Sim.addObserver(&Metrics);
  Sim.addObserver(&Checker);
  SimulationResult R = Sim.run(100000);
  W.key(std::string("star5_mixed_seed7_") + modelName(Model))
      .beginObject()
      .field("steps", R.Steps)
      .field("delivered", R.Delivered)
      .field("transmissions", R.Transmissions)
      .field("busy_link_steps", R.BusyLinkSteps)
      .field("max_queue_length", R.MaxQueueLength)
      .field("link_utilization", R.LinkUtilization, 6)
      .field("invariants", Checker.clean() ? "clean" : "VIOLATED")
      .key("metrics")
      .rawValue(Registry.toJson(64))
      .endObject();
}

/// The full --json report; deterministic (fixed seeds, no wall times), so
/// the committed BENCH_simulator.json can be diffed byte-for-byte.
std::string jsonReport() {
  JsonWriter W;
  W.beginObject();
  for (CommModel Model : {CommModel::AllPort, CommModel::SinglePort,
                          CommModel::SingleDimension})
    jsonWorkload(W, Model);
  W.endObject();
  return W.str();
}

bool sameResult(const SimulationResult &A, const SimulationResult &B) {
  return A.Completed == B.Completed && A.Steps == B.Steps &&
         A.Delivered == B.Delivered && A.Transmissions == B.Transmissions &&
         A.BusyLinkSteps == B.BusyLinkSteps &&
         A.MaxQueueLength == B.MaxQueueLength &&
         A.LinkUtilization == B.LinkUtilization;
}

int runSmoke(bool Json) {
  int Failures = 0;
  auto Check = [&](const char *Name, bool Ok) {
    std::printf("%-44s %s\n", Name, Ok ? "ok" : "FAIL");
    Failures += !Ok;
  };

  // The single-port serialization fix, pinned: a node with two queued
  // 3-flit messages on distinct links must stream them back to back
  // (6 steps, 6 busy link-steps), not in parallel (the buggy 4).
  {
    ExplicitScg Net(SuperCayleyGraph::star(4));
    NetworkSimulator Sim(Net, CommModel::SinglePort);
    Sim.injectPacket(0, {0}, 3);
    Sim.injectPacket(0, {1}, 3);
    SimulationResult R = Sim.run(100);
    Check("single-port 2x3-flit serializes (6 steps)",
          R.Completed && R.Steps == 6 && R.BusyLinkSteps == 6);
  }

  // Pinned mixed-workload numbers per model, with a clean invariant
  // checker and observed == unobserved results.
  struct Pin {
    CommModel Model;
    uint64_t Steps;
  };
  for (Pin P : {Pin{CommModel::AllPort, 15}, Pin{CommModel::SinglePort, 17},
                Pin{CommModel::SingleDimension, 25}}) {
    ExplicitScg Net(SuperCayleyGraph::star(5));
    NetworkSimulator Bare(Net, P.Model);
    injectMixed(Bare, Net, 150, 7);
    SimulationResult RB = Bare.run(100000);

    NetworkSimulator Observed(Net, P.Model);
    injectMixed(Observed, Net, 150, 7);
    MetricsRegistry Registry;
    MetricsObserver Metrics(Registry);
    ModelInvariantChecker Checker;
    Observed.addObserver(&Metrics);
    Observed.addObserver(&Checker);
    SimulationResult RO = Observed.run(100000);

    char Name[64];
    std::snprintf(Name, sizeof(Name), "%s pinned (%llu steps)",
                  modelName(P.Model), (unsigned long long)P.Steps);
    Check(Name, RB.Completed && RB.Steps == P.Steps && RB.Delivered == 150 &&
                    RB.Transmissions == 442);
    std::snprintf(Name, sizeof(Name), "%s observed == unobserved",
                  modelName(P.Model));
    Check(Name, sameResult(RB, RO));
    std::snprintf(Name, sizeof(Name), "%s invariants clean",
                  modelName(P.Model));
    Check(Name, Checker.clean());
    if (!Checker.clean())
      std::printf("%s", Checker.report().c_str());
  }

  // With --json as well, pin the report's determinism: two full
  // generations (fresh simulators, observers, registries) must render
  // byte-identically, or the committed BENCH_simulator.json would churn.
  if (Json) {
    std::string A = jsonReport();
    Check("json report deterministic", !A.empty() && A == jsonReport());
  }

  return Failures ? 1 : 0;
}

} // namespace

int main(int argc, char **argv) {
  bool Json = false, Smoke = false;
  for (int I = 1; I != argc; ++I) {
    Json |= std::strcmp(argv[I], "--json") == 0;
    Smoke |= std::strcmp(argv[I], "--smoke") == 0;
  }
  if (Smoke)
    return runSmoke(Json);
  if (Json) {
    std::printf("%s", jsonReport().c_str());
    return 0;
  }
  printPipelining();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
