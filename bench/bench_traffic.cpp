//===- bench/bench_traffic.cpp - Experiments E23 + E27 -------------------===//
//
// Steady-state saturation curves: synthetic workloads (comm/Workload.h)
// offered to each family x communication model over a sweep of injection
// rates, reporting delivered throughput and latency percentiles per
// offered load -- the standard interconnect-evaluation methodology the
// paper itself stops short of (it evaluates one-shot permutation traffic
// only). The simulator's step loop touches only active links and jumps
// over idle steps, so both the saturated points and the long sparse tails
// these curves produce stay cheap.
//
// E27 extends E23 past the scalar-setup wall: route setup dedupes the
// trace to distinct relative labels (Cayley symmetry) and batch-routes
// them through the query engine, which is what makes star(7) (5,040
// nodes) and star(8) (40,320 nodes) curves affordable; closed-loop
// variants throttle injection by source-node queue depth and report the
// deferral counters next to each open-loop twin.
//
// Modes:
//   (default)    human-readable E23/E27 table + google-benchmark timings
//   --json       machine-readable one-object JSON on stdout: the full
//                curve sweep with per-point throughput/latency/occupancy
//                and dedup factor (committed as BENCH_traffic.json in the
//                repo root; fully deterministic, no wall times)
//   --maxk <k>   largest star dimension swept, in [4, 8] (default 6; the
//                committed JSON is generated with --maxk 8)
//   --smoke      bounded checks: closed-loop thread-count invariance and
//                --json determinism; non-zero exit on any failure. Wired
//                into ctest under perf-smoke.
//
//===----------------------------------------------------------------------===//

#include "comm/Workload.h"
#include "support/Format.h"
#include "support/ThreadPool.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace scg;

namespace {

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

/// One saturation curve: a family x model at one k, swept over rates.
/// ClosedLoopMaxQueue zero is the open-loop source; nonzero throttles
/// injection at that per-source-node queue depth.
struct CurveSpec {
  SuperCayleyGraph Family;
  CommModel Model;
  std::vector<double> Rates;
  uint64_t Steps;
  uint64_t ClosedLoopMaxQueue = 0;
};

/// The per-node queue-depth limit of every closed-loop curve: small enough
/// to bite well before saturation at the swept rates.
constexpr uint64_t ClosedLoopLimit = 4;

/// The committed sweep: every family class at k = 4 is covered by the
/// differential tests; the curves track star / transposition /
/// insertion-selection at k = 4 (the single-level classes with lifted
/// star routes) and star up to k = \p MaxK, each under all three models
/// through k = 6 and under single-port at k = 7, 8 (where one model keeps
/// the 40,320-node sweep bounded). Closed-loop twins ride along from
/// k = 5 up. Horizons shrink as k grows; rates bracket saturation.
std::vector<CurveSpec> curveSpecs(unsigned MaxK) {
  std::vector<double> FullSweep = {0.02, 0.05, 0.10, 0.20, 0.40};
  std::vector<double> ShortSweep = {0.02, 0.10, 0.40};
  std::vector<CurveSpec> Specs;
  for (CommModel Model :
       {CommModel::AllPort, CommModel::SinglePort,
        CommModel::SingleDimension}) {
    Specs.push_back({SuperCayleyGraph::star(4), Model, FullSweep, 400});
    Specs.push_back(
        {SuperCayleyGraph::transpositionNetwork(4), Model, FullSweep, 400});
    Specs.push_back(
        {SuperCayleyGraph::insertionSelection(4), Model, FullSweep, 400});
    if (MaxK >= 5)
      Specs.push_back({SuperCayleyGraph::star(5), Model, FullSweep, 300});
    if (MaxK >= 6)
      Specs.push_back({SuperCayleyGraph::star(6), Model, ShortSweep, 120});
  }
  if (MaxK >= 5)
    Specs.push_back({SuperCayleyGraph::star(5), CommModel::SinglePort,
                     ShortSweep, 300, ClosedLoopLimit});
  if (MaxK >= 6)
    Specs.push_back({SuperCayleyGraph::star(6), CommModel::SinglePort,
                     ShortSweep, 120, ClosedLoopLimit});
  if (MaxK >= 7)
    for (CommModel Model : {CommModel::AllPort, CommModel::SinglePort})
      for (uint64_t Limit : {uint64_t(0), ClosedLoopLimit})
        Specs.push_back(
            {SuperCayleyGraph::star(7), Model, ShortSweep, 100, Limit});
  if (MaxK >= 8)
    for (uint64_t Limit : {uint64_t(0), ClosedLoopLimit})
      Specs.push_back({SuperCayleyGraph::star(8), CommModel::SinglePort,
                       ShortSweep, 50, Limit});
  return Specs;
}

WorkloadSpec uniformAt(double Rate) {
  WorkloadSpec Spec;
  Spec.Kind = WorkloadKind::UniformRandom;
  Spec.InjectionRate = Rate;
  Spec.Seed = 23;
  return Spec;
}

TrafficLoadResult runPoint(const ExplicitScg &Net, const CurveSpec &Spec,
                           double Rate) {
  TrafficLoadOptions Options;
  Options.ClosedLoopMaxQueue = Spec.ClosedLoopMaxQueue;
  return simulateTrafficLoad(Net, Spec.Model, uniformAt(Rate), Spec.Steps,
                             Options);
}

//===----------------------------------------------------------------------===//
// --json: the committed saturation curves
//===----------------------------------------------------------------------===//

/// Deterministic (fixed seeds, no wall times -- SetupSeconds is measured
/// but never printed): the committed BENCH_traffic.json can be diffed
/// byte-for-byte.
std::string jsonReport(unsigned MaxK) {
  JsonWriter W;
  W.beginObject().key("curves").beginArray();
  for (const CurveSpec &Spec : curveSpecs(MaxK)) {
    const bool Closed = Spec.ClosedLoopMaxQueue != 0;
    ExplicitScg Net(Spec.Family);
    W.beginObject()
        .field("family", Spec.Family.name())
        .field("model", modelName(Spec.Model))
        .field("loop", Closed ? "closed" : "open")
        .field("max_queue", Spec.ClosedLoopMaxQueue)
        .field("nodes", Net.numNodes())
        .field("steps", Spec.Steps)
        .key("points")
        .beginArray();
    for (double Rate : Spec.Rates) {
      TrafficLoadResult R = runPoint(Net, Spec, Rate);
      W.beginObject()
          .field("offered", R.OfferedRate, 6)
          .field("delivered", R.DeliveredRate, 6)
          .field("mean_latency", R.MeanLatency, 4)
          .field("p50", R.P50Latency)
          .field("p99", R.P99Latency)
          .field("mean_queued", R.MeanQueued, 4)
          .field("dedup", R.DedupFactor, 2);
      if (Closed)
        W.field("deferred_injections", R.Sim.DeferredInjections)
            .field("deferred_steps", R.Sim.DeferredSteps);
      W.endObject();
    }
    W.endArray().endObject();
  }
  W.endArray().endObject();
  return W.str();
}

//===----------------------------------------------------------------------===//
// Default mode: the human-readable E23 table
//===----------------------------------------------------------------------===//

void printCurves(unsigned MaxK) {
  std::printf("E23/E27: saturation curves under uniform random traffic "
              "(batched label-deduped setup)\n\n");
  TextTable Table;
  Table.setHeader({"network", "model", "loop", "offered", "delivered",
                   "mean lat", "p99 lat", "mean queued", "dedup"});
  for (const CurveSpec &Spec : curveSpecs(MaxK)) {
    ExplicitScg Net(Spec.Family);
    for (double Rate : Spec.Rates) {
      TrafficLoadResult R = runPoint(Net, Spec, Rate);
      Table.addRow({Spec.Family.name(), modelName(Spec.Model),
                    Spec.ClosedLoopMaxQueue ? "closed" : "open",
                    formatDouble(R.OfferedRate, 3),
                    formatDouble(R.DeliveredRate, 3),
                    formatDouble(R.MeanLatency, 2),
                    std::to_string(R.P99Latency),
                    formatDouble(R.MeanQueued, 1),
                    formatDouble(R.DedupFactor, 1)});
    }
  }
  std::printf("%s\n", Table.render().c_str());
  std::printf("shape check: delivered tracks offered until saturation then "
              "plateaus while p99 latency climbs; closed-loop rows bound "
              "mean queued at the depth limit by deferring injections; "
              "dedup is offered messages per distinct relative label "
              "(the route computations batched setup saves).\n\n");
}

//===----------------------------------------------------------------------===//
// --smoke
//===----------------------------------------------------------------------===//

bool sameResult(const SimulationResult &A, const SimulationResult &B) {
  return A.Completed == B.Completed && A.Steps == B.Steps &&
         A.Delivered == B.Delivered && A.Transmissions == B.Transmissions &&
         A.BusyLinkSteps == B.BusyLinkSteps &&
         A.MaxQueueLength == B.MaxQueueLength &&
         A.LinkUtilization == B.LinkUtilization &&
         A.DeferredInjections == B.DeferredInjections &&
         A.DeferredSteps == B.DeferredSteps;
}

/// Full driver-result identity: every field except SetupSeconds (wall
/// clock, the one field outside the determinism contract).
bool sameLoad(const TrafficLoadResult &A, const TrafficLoadResult &B) {
  return sameResult(A.Sim, B.Sim) && A.Offered == B.Offered &&
         A.OfferedRate == B.OfferedRate &&
         A.DeliveredRate == B.DeliveredRate && A.MeanHops == B.MeanHops &&
         A.MeanLatency == B.MeanLatency && A.P50Latency == B.P50Latency &&
         A.P99Latency == B.P99Latency && A.MeanQueued == B.MeanQueued &&
         A.DistinctLabels == B.DistinctLabels &&
         A.DedupFactor == B.DedupFactor;
}

int runSmoke(bool Json, unsigned MaxK) {
  int Failures = 0;
  auto Check = [&](const char *Name, bool Ok) {
    std::printf("%-44s %s\n", Name, Ok ? "ok" : "FAIL");
    Failures += !Ok;
  };

  // Closed-loop results are thread-count invariant: 1 thread vs 2 threads
  // (batched parallel setup) must agree on every deterministic field.
  {
    ExplicitScg Net(SuperCayleyGraph::star(5));
    TrafficLoadOptions Opts;
    Opts.ClosedLoopMaxQueue = ClosedLoopLimit;
    setGlobalThreadCount(1);
    TrafficLoadResult A =
        simulateTrafficLoad(Net, CommModel::SinglePort, uniformAt(0.4), 200,
                            Opts);
    setGlobalThreadCount(2);
    TrafficLoadResult B =
        simulateTrafficLoad(Net, CommModel::SinglePort, uniformAt(0.4), 200,
                            Opts);
    setGlobalThreadCount(1);
    Check("closed loop 1-thread == 2-thread", sameLoad(A, B));
  }

  // With --json as well, pin the report's determinism: two full
  // generations must render byte-identically, or the committed
  // BENCH_traffic.json would churn.
  if (Json) {
    std::string A = jsonReport(MaxK);
    Check("json report deterministic", !A.empty() && A == jsonReport(MaxK));
  }

  return Failures ? 1 : 0;
}

//===----------------------------------------------------------------------===//
// google-benchmark timings
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;

/// Sparse-tail wall-clock workload: a handful of packets staggered over a
/// long horizon on star(6) -- 4320 queues, almost all idle at any step.
/// Returns milliseconds for one run.
double timedSparseMs(const ExplicitScg &Net) {
  NetworkSimulator Sim(Net, CommModel::SinglePort);
  SplitMix64 Rng(9);
  for (unsigned P = 0; P != 50; ++P) {
    std::vector<GenIndex> Route;
    for (unsigned H = 0; H != 4; ++H)
      Route.push_back(Rng.nextBelow(Net.degree()));
    Sim.scheduleInjection(P * 40, NodeId(Rng.nextBelow(Net.numNodes())),
                          Route);
  }
  auto Start = Clock::now();
  SimulationResult R = Sim.run(/*MaxSteps=*/4000);
  double Ms =
      std::chrono::duration<double, std::milli>(Clock::now() - Start).count();
  benchmark::DoNotOptimize(R);
  return Ms;
}

void BM_SparseTraffic(benchmark::State &State) {
  ExplicitScg Net(SuperCayleyGraph::star(6));
  for (auto _ : State)
    benchmark::DoNotOptimize(timedSparseMs(Net));
}
BENCHMARK(BM_SparseTraffic)->Unit(benchmark::kMillisecond);

void BM_SaturatedLoad(benchmark::State &State) {
  ExplicitScg Net(SuperCayleyGraph::star(5));
  for (auto _ : State) {
    TrafficLoadResult R = simulateTrafficLoad(
        Net, CommModel::SinglePort, uniformAt(0.4), 200);
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_SaturatedLoad)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  bool Json = false, Smoke = false;
  unsigned MaxK = 6;
  for (int I = 1; I != argc; ++I) {
    Json |= std::strcmp(argv[I], "--json") == 0;
    Smoke |= std::strcmp(argv[I], "--smoke") == 0;
    if (std::strcmp(argv[I], "--maxk") == 0) {
      const char *Arg = I + 1 != argc ? argv[++I] : nullptr;
      char *End = nullptr;
      long V = Arg ? std::strtol(Arg, &End, 10) : 0;
      if (!Arg || *End != '\0' || V < 4 || V > 8) {
        std::fprintf(stderr,
                     "error: --maxk requires an integer in [4, 8], got '%s'\n",
                     Arg ? Arg : "(nothing)");
        return 2;
      }
      MaxK = unsigned(V);
    }
  }
  if (Smoke)
    return runSmoke(Json, MaxK);
  if (Json) {
    std::printf("%s", jsonReport(MaxK).c_str());
    return 0;
  }
  printCurves(MaxK);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
