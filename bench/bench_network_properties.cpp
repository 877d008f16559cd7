//===- bench/bench_network_properties.cpp - Experiments E13 / E22 / E28 --===//
//
// Reproduces the Section 2 network inventory: every super Cayley graph
// class (plus the classic comparison networks) with its size, degree,
// diameter, and average internodal distance. The paper quotes "optimal
// diameters (given their node degree) and small node degrees"; the table
// makes the degree/diameter trade-off concrete.
//
// Also carries the exact-distance engine curve (E22/E28): scalar vs
// bit-parallel (push MS-BFS) all-pairs sweeps on the star family, plus
// the MS-BFS sweep's 1/2/4/8-thread scaling table. The scalar rows run
// oracle::scalarAllPairsStats from tests/Oracles.h, the one-BFS-per-source
// reference the library no longer carries.
//
// Modes (consistent with bench_kernels / bench_pipelining):
//   (default)  inventory table + scaling + google-benchmark timings
//   --json     machine-readable distance-engine curve on stdout. Every
//              entry records engine + thread-count metadata. Regenerates
//              the committed BENCH_distance.json up to star(9); pass
//              "--maxk 10" to append the exact star(10) sweep (3.6M
//              nodes -- an hours-scale single-machine run).
//   --threads  just the MS-BFS thread-scaling table (human-readable).
//   --smoke    bounded pinned workload (star 6/7), non-zero exit unless
//              push >= scalar throughput at both sizes AND the two
//              engines agree on diameter / average distance bit for bit
//              (with the vertex-transitivity shortcut as a third
//              witness); wired into ctest under the perf-smoke label.
//
// --json and --smoke force a single thread (except the explicit scaling
// entries) so numbers are comparable across machines.
//
//===----------------------------------------------------------------------===//

#include "graph/Metrics.h"
#include "graph/MsBfs.h"
#include "networks/Clusters.h"
#include "networks/Explicit.h"
#include "perm/GroupOrder.h"
#include "support/BatchRunner.h"
#include "support/Format.h"
#include "support/ThreadPool.h"

#include "Oracles.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace scg;

namespace {

std::vector<std::string> networkRow(const SuperCayleyGraph &Scg) {
  ExplicitScg Net(Scg);
  DistanceStats Stats = vertexTransitiveStats(Net.toCsr());
  // Connectivity certificate (Schreier-Sims) and modular structure.
  std::vector<Permutation> Actions;
  for (const Generator &G : Scg.generators())
    Actions.push_back(G.Sigma);
  std::string Clusters = "-";
  if (Scg.numBoxes() >= 2) {
    ClusterStructure C(Net);
    Clusters = std::to_string(C.numClusters()) + "x" +
               std::to_string(C.clusterSize());
  }
  return {Scg.name(), std::to_string(Scg.numSymbols()),
          std::to_string(Scg.numNodes()),
          std::to_string(Scg.degree()),
          Scg.isUndirected() ? "no" : "yes",
          std::to_string(Stats.Diameter),
          formatDouble(Stats.AverageDistance, 3),
          generatesSymmetricGroup(Actions) ? "yes" : "NO", Clusters};
}

void printInventory() {
  std::printf("E13: network properties of the super Cayley graph classes "
              "(Section 2)\n\n");
  TextTable Table;
  Table.setHeader({"network", "k", "nodes", "degree", "directed", "diameter",
                   "avg dist", "S_k cert", "clusters"});

  // Every inventory row is independent; build them as a parallel batch and
  // print in submission order.
  BatchRunner<std::vector<std::string>> Rows;
  auto Queue = [&](SuperCayleyGraph Scg) {
    Rows.add([Scg = std::move(Scg)] { return networkRow(Scg); });
  };
  for (unsigned K : {5u, 6u, 7u}) {
    Queue(SuperCayleyGraph::star(K));
    Queue(SuperCayleyGraph::bubbleSort(K));
    Queue(SuperCayleyGraph::transpositionNetwork(K));
    Queue(SuperCayleyGraph::insertionSelection(K));
  }
  for (auto [L, N] : {std::pair{2u, 2u}, {3u, 2u}, {2u, 3u}, {4u, 2u}}) {
    for (NetworkKind Kind :
         {NetworkKind::MacroStar, NetworkKind::RotationStar,
          NetworkKind::CompleteRotationStar, NetworkKind::MacroRotator,
          NetworkKind::RotationRotator, NetworkKind::CompleteRotationRotator,
          NetworkKind::MacroIS, NetworkKind::RotationIS,
          NetworkKind::CompleteRotationIS})
      if (L * N + 1 <= 9)
        Queue(SuperCayleyGraph::create(Kind, L, N));
  }
  for (std::vector<std::string> &Row : Rows.run())
    Table.addRow(std::move(Row));
  std::printf("%s\n", Table.render().c_str());
  std::printf("note: the paper's headline trade-off is visible in the "
              "degree column: MS/RS/complete-RS reach star-graph-like "
              "diameters with ~n + l links instead of k - 1.\n\n");
}

//===----------------------------------------------------------------------===//
// E22/E28: the distance-engine curve (scalar vs push MS-BFS) and the
// MS-BFS thread-scaling table.
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

struct Measurement {
  std::string Name;
  double Ms;
  uint64_t Check; ///< diameter of the swept graph, pinning correctness.
  const char *Engine;
  unsigned Threads = 1;
  /// Exact average internodal distance, full precision -- the committed
  /// JSON doubles as the certificate of the swept value (engines and
  /// thread counts must reproduce it bit for bit).
  double AvgDistance = 0.0;
};

/// Sub-second sweeps (k <= 7) are dominated by first-touch noise (cold
/// scratch, hugepage setup, frequency ramp) on a single cold shot, so
/// the committed curve reports best-of-3 there; the k >= 8 sweeps run
/// seconds to hours and are stable single-shot.
int curveReps(unsigned K) { return K <= 7 ? 3 : 1; }

/// Scalar all-pairs (one BFS per source) on star(k).
Measurement scalarSweep(unsigned K) {
  Csr G = ExplicitScg(SuperCayleyGraph::star(K)).toCsr();
  double BestMs = 1e300;
  DistanceStats S;
  for (int Rep = 0, Reps = curveReps(K); Rep != Reps; ++Rep) {
    auto Start = Clock::now();
    S = oracle::scalarAllPairsStats(G);
    BestMs = std::min(BestMs, msSince(Start));
  }
  return {"all_pairs_scalar_star" + std::to_string(K), BestMs, S.Diameter,
          "scalar", 1, S.AverageDistance};
}

/// MS-BFS all-pairs on star(k), fed straight from the Next table, at
/// \p Threads threads.
Measurement msbfsSweep(unsigned K, unsigned Threads = 1) {
  Csr C = ExplicitScg(SuperCayleyGraph::star(K)).toCsr();
  // One extra rep at k = 8 relative to curveReps: the first star(8) sweep
  // of a process pays first-touch page faults on its scratch bitmaps,
  // which would land entirely on whichever star(8) entry runs first and
  // fake a thread-scaling "speedup" on a single-core host.
  const int Reps = K <= 7 ? 3 : K == 8 ? 2 : 1;
  setGlobalThreadCount(Threads);
  double Ms = 1e300;
  DistanceStats S;
  for (int Rep = 0; Rep != Reps; ++Rep) {
    auto Start = Clock::now();
    S = msAllPairsStats(C);
    Ms = std::min(Ms, msSince(Start));
  }
  setGlobalThreadCount(1);
  return {"all_pairs_push_star" + std::to_string(K) +
              (Threads == 1 ? "" : "_t" + std::to_string(Threads)),
          Ms, S.Diameter, "push", Threads, S.AverageDistance};
}

/// The committed BENCH_distance.json curve: both engines at k = 6/7/8,
/// MS-BFS alone at k >= 9 (the scalar engine needs ~half an hour at
/// k = 9), plus MS-BFS's 1/2/4/8-thread scaling points on the k = 8
/// sweep.
std::vector<Measurement> distanceCurve(unsigned MaxK) {
  std::vector<Measurement> Ms;
  // The k >= 9 sweeps run for minutes to hours; narrate each completed
  // measurement on stderr so a redirected --json run stays observable.
  auto Log = [&Ms] {
    const Measurement &M = Ms.back();
    std::fprintf(stderr,
                 "[distance-curve] %-28s %12.2f ms  diam %llu  avg %.6f\n",
                 M.Name.c_str(), M.Ms, (unsigned long long)M.Check,
                 M.AvgDistance);
  };
  for (unsigned K : {6u, 7u, 8u}) {
    Ms.push_back(scalarSweep(K));
    Log();
    Ms.push_back(msbfsSweep(K));
    Log();
  }
  for (unsigned Threads : {2u, 4u, 8u}) {
    Ms.push_back(msbfsSweep(8, Threads));
    Log();
  }
  for (unsigned K = 9; K <= std::min(MaxK, 10u); ++K) {
    Ms.push_back(msbfsSweep(K));
    Log();
  }
  return Ms;
}

void printJson(const std::vector<Measurement> &Ms) {
  JsonWriter W;
  W.beginObject();
  for (const Measurement &M : Ms) {
    W.key(M.Name)
        .beginObject()
        .field("ms", M.Ms, 2)
        .field("check", M.Check)
        .field("engine", M.Engine)
        .field("threads", M.Threads)
        .field("avg_distance", M.AvgDistance)
        .endObject();
  }
  W.endObject();
  std::fputs(W.str().c_str(), stdout);
}

/// Human-readable MS-BFS scaling table: the k = 8 sweep at 1/2/4/8
/// threads with byte-identity asserted against the single-thread run.
void printThreadScaling() {
  std::printf("MS-BFS thread scaling: msAllPairsStats on star(8) "
              "(40,320 nodes, 630 batches) at 1/2/4/8 threads\n");
  std::printf("(hardware concurrency here: %u; SCG_THREADS overrides; on a "
              "1-core host wall-clock parity is the ceiling and the table "
              "verifies determinism, not speedup)\n\n",
              defaultThreadCount());
  Csr C = ExplicitScg(SuperCayleyGraph::star(8)).toCsr();
  TextTable Table;
  Table.setHeader({"threads", "wall ms", "speedup", "diameter", "avg dist"});
  double BaselineMs = 0.0;
  DistanceStats Reference;
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    setGlobalThreadCount(Threads);
    auto Start = Clock::now();
    DistanceStats Stats = msAllPairsStats(C);
    double Ms = msSince(Start);
    benchmark::DoNotOptimize(Stats);
    if (Threads == 1) {
      BaselineMs = Ms;
      Reference = Stats;
    } else if (Stats.Diameter != Reference.Diameter ||
               Stats.AverageDistance != Reference.AverageDistance) {
      std::printf("ERROR: parallel result diverged from serial!\n");
    }
    Table.addRow({std::to_string(Threads), formatDouble(Ms, 1),
                  formatDouble(BaselineMs / Ms, 2),
                  std::to_string(Stats.Diameter),
                  formatDouble(Stats.AverageDistance, 3)});
  }
  setGlobalThreadCount(0);
  std::printf("%s\n\n", Table.render().c_str());
}

bool bitEqualDouble(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

/// Pinned workload for the perf-smoke lane: at star(6) and star(7) --
/// the latter the dense-diameter family instance (5040 nodes, diameter
/// 9) -- MS-BFS must beat the scalar engine on throughput, and the two
/// must agree on the diameter and bit for bit on the average distance
/// (with the vertex-transitivity shortcut as a third witness). Each
/// engine takes the best of three reps: ctest runs this lane alongside
/// other tests, and a single descheduled rep must not fail the ordering
/// check.
int runSmoke() {
  constexpr int Reps = 3;
  int Failures = 0;
  for (unsigned K : {6u, 7u}) {
    ExplicitScg Net(SuperCayleyGraph::star(K));
    Csr G = Net.toCsr();
    DistanceStats Scalar, Push;
    double ScalarMs = 1e300, PushMs = 1e300;
    for (int Rep = 0; Rep != Reps; ++Rep) {
      auto StartScalar = Clock::now();
      Scalar = oracle::scalarAllPairsStats(G);
      ScalarMs = std::min(ScalarMs, msSince(StartScalar));
      auto StartPush = Clock::now();
      Push = msAllPairsStats(G);
      PushMs = std::min(PushMs, msSince(StartPush));
    }
    DistanceStats Vt = vertexTransitiveStats(G);
    double NodesPerSec = PushMs > 0.0 ? Net.numNodes() / (PushMs / 1e3) : 0;

    bool Agree = Scalar.Connected && Push.Connected &&
                 Scalar.Diameter == Push.Diameter &&
                 bitEqualDouble(Scalar.AverageDistance, Push.AverageDistance);
    bool VtAgree = Vt.Diameter == Push.Diameter;
    bool Faster = PushMs <= ScalarMs;
    std::printf("star(%u): scalar %8.2f ms | push %8.2f ms (%.1fx vs scalar, "
                "%.0f sources/s) | diam %u avg %.6f | %s%s%s\n",
                K, ScalarMs, PushMs, ScalarMs / PushMs, NodesPerSec,
                Push.Diameter, Push.AverageDistance,
                Agree ? "agree " : "ENGINE-MISMATCH ",
                VtAgree ? "vt-ok " : "VT-MISMATCH ",
                Faster ? "fast-ok" : "SLOWER-THAN-BASELINE");
    Failures += !Agree + !VtAgree + !Faster;
  }
  return Failures ? 1 : 0;
}

void BM_BuildExplicitStar7(benchmark::State &State) {
  SuperCayleyGraph Star = SuperCayleyGraph::star(7);
  for (auto _ : State) {
    ExplicitScg Net(Star);
    benchmark::DoNotOptimize(Net.numNodes());
  }
}
BENCHMARK(BM_BuildExplicitStar7)->Unit(benchmark::kMillisecond);

void BM_DiameterMacroStar32(benchmark::State &State) {
  SuperCayleyGraph Ms = SuperCayleyGraph::create(NetworkKind::MacroStar, 3, 2);
  ExplicitScg Net(Ms);
  Csr G = Net.toCsr();
  for (auto _ : State)
    benchmark::DoNotOptimize(vertexTransitiveStats(G).Diameter);
}
BENCHMARK(BM_DiameterMacroStar32)->Unit(benchmark::kMillisecond);

void BM_AllPairsStatsStar7(benchmark::State &State) {
  // Arg = thread count for the global pool (the tentpole's hot kernel).
  static ExplicitScg Net(SuperCayleyGraph::star(7));
  static Csr G = Net.toCsr();
  setGlobalThreadCount(unsigned(State.range(0)));
  for (auto _ : State)
    benchmark::DoNotOptimize(msAllPairsStats(G).Diameter);
  setGlobalThreadCount(0);
}
BENCHMARK(BM_AllPairsStatsStar7)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  bool Json = false, Smoke = false, Threads = false;
  unsigned MaxK = 9;
  for (int I = 1; I != argc; ++I) {
    Json |= std::strcmp(argv[I], "--json") == 0;
    Smoke |= std::strcmp(argv[I], "--smoke") == 0;
    Threads |= std::strcmp(argv[I], "--threads") == 0;
    if (std::strcmp(argv[I], "--maxk") == 0) {
      const char *Arg = I + 1 != argc ? argv[++I] : nullptr;
      char *End = nullptr;
      long V = Arg ? std::strtol(Arg, &End, 10) : 0;
      if (!Arg || *End != '\0' || V < 6 || V > 12) {
        std::fprintf(stderr,
                     "error: --maxk requires an integer in [6, 12], got '%s'\n",
                     Arg ? Arg : "(nothing)");
        return 2;
      }
      MaxK = unsigned(V);
    }
  }
  if (Smoke) {
    setGlobalThreadCount(1);
    return runSmoke();
  }
  if (Json) {
    setGlobalThreadCount(1);
    printJson(distanceCurve(MaxK));
    return 0;
  }
  if (Threads) {
    printThreadScaling();
    return 0;
  }
  printInventory();
  printThreadScaling();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
