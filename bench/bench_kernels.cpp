//===- bench/bench_kernels.cpp - Rank-space kernel microbenchmarks -------===//
//
// Experiment E20: the hot permutation kernels the whole library sits on --
// Lehmer rank/unrank, generator composition, the ExplicitScg neighbor-table
// build, and the MS-BFS distance sweeps (one source, and all pairs). These
// are the numbers the rank-space optimization pass (inline labels,
// table-driven Lehmer) is measured by; BENCH_kernels.json in the repo root
// records the committed baseline. Experiment E35 adds the fixed cost of
// one ThreadPool dispatch: 2,000 back-to-back dispatches of 16 chunks of
// about 0.1 us each, median and p90, on pools of 4 and 8 threads.
//
// Modes:
//   (default)  human-readable table of all measurements
//   --json     machine-readable one-object JSON on stdout (for diffing
//              against BENCH_kernels.json)
//   --smoke    bounded sizes + result invariants, non-zero exit on any
//              mismatch; wired into ctest under the perf-smoke label
//
// The kernel measurements force a single thread so numbers are comparable
// across machines and unaffected by the pool size; the dispatch rows use
// pools of their own. Without --json or --smoke the table is followed by
// the google-benchmark timers (BM_PoolDispatch/<threads>).
//
//===----------------------------------------------------------------------===//

#include "graph/Metrics.h"
#include "graph/MsBfs.h"
#include "networks/Explicit.h"
#include "perm/Lehmer.h"
#include "support/Format.h"
#include "support/ThreadPool.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

using namespace scg;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

struct Measurement {
  std::string Name;
  double Ms;
  uint64_t Check; ///< result value pinning correctness of the timed work.
};

/// Rank/unrank round trip over all of S_k; Check is the rank sum, which
/// must equal k! (k! - 1) / 2 when both kernels are exact inverses.
Measurement lehmerRoundTrip(unsigned K) {
  uint64_t N = factorial(K);
  auto Start = Clock::now();
  uint64_t Acc = 0;
  for (uint64_t R = 0; R != N; ++R)
    Acc += rankPermutation(unrankPermutation(R, K));
  return {"lehmer_roundtrip_k" + std::to_string(K), msSince(Start), Acc};
}

/// Repeated right composition by a fixed generator-like permutation.
Measurement composeChain(unsigned K, uint64_t Iterations) {
  Permutation P = unrankPermutation(factorial(K) / 3, K);
  Permutation G = unrankPermutation(factorial(K) / 7 + 1, K);
  auto Start = Clock::now();
  for (uint64_t I = 0; I != Iterations; ++I)
    P.composeInto(G, P);
  benchmark::DoNotOptimize(P);
  double Ms = msSince(Start);
  std::string Count = Iterations >= 1000000
                          ? std::to_string(Iterations / 1000000) + "M"
                          : std::to_string(Iterations / 1000) + "k";
  return {"compose_" + Count + "_k" + std::to_string(K), Ms,
          rankPermutation(P)};
}

/// Full neighbor-table build of star(k); Check is the table checksum so the
/// build cannot be optimized away and stays byte-stable.
Measurement explicitBuild(unsigned K) {
  SuperCayleyGraph Star = SuperCayleyGraph::star(K);
  auto Start = Clock::now();
  ExplicitScg Net(Star);
  double Ms = msSince(Start);
  uint64_t Sum = 0;
  for (NodeId V : Net.nextTable())
    Sum += V;
  return {"explicit_build_star" + std::to_string(K), Ms, Sum};
}

/// Single-source distance stats (a one-lane MS-BFS) on star(k); Check is
/// the diameter.
Measurement vtStats(unsigned K) {
  Csr G = ExplicitScg(SuperCayleyGraph::star(K)).toCsr();
  auto Start = Clock::now();
  DistanceStats S = vertexTransitiveStats(G);
  return {"vt_stats_star" + std::to_string(K), msSince(Start), S.Diameter};
}

/// All-pairs distance stats (k! BFS sweeps) on star(k).
Measurement allPairs(unsigned K) {
  ExplicitScg Net(SuperCayleyGraph::star(K));
  Csr G = Net.toCsr();
  auto Start = Clock::now();
  DistanceStats S = msAllPairsStats(G);
  return {"all_pairs_star" + std::to_string(K), msSince(Start), S.Diameter};
}

/// Chunks per dispatch in the dispatch rows: the simulator step's count.
constexpr uint64_t DispatchChunks = 16;

/// One dispatch row: per-dispatch wall time of back-to-back dispatches.
struct DispatchMeasurement {
  unsigned Threads;
  uint64_t Dispatches;
  double MedianUs, P90Us;
  uint64_t Check; ///< chunks run, which must be Dispatches * 16.
};

/// The dispatch rows' chunk: about 0.1 us of dependent multiply-adds, its
/// result and a run count written to the chunk's own cache line.
class DispatchBody {
public:
  DispatchBody()
      : Fn([this](uint64_t B, uint64_t E) {
          for (uint64_t C = B; C != E; ++C) {
            uint64_t X = C + 1;
            for (unsigned I = 0; I != 128; ++I)
              X = X * 6364136223846793005ULL + 1442695040888963407ULL;
            Slots[C].Value = X;
            ++Slots[C].Runs;
          }
        }) {}
  DispatchBody(const DispatchBody &) = delete; // Fn points at this object.
  DispatchBody &operator=(const DispatchBody &) = delete;

  const std::function<void(uint64_t, uint64_t)> &fn() const { return Fn; }
  uint64_t runs() const {
    uint64_t Sum = 0;
    for (const Slot &S : Slots)
      Sum += S.Runs;
    return Sum;
  }

private:
  struct alignas(64) Slot {
    uint64_t Value = 0, Runs = 0;
  };
  Slot Slots[DispatchChunks];
  std::function<void(uint64_t, uint64_t)> Fn;
};

/// \p Dispatches back-to-back 16-chunk dispatches on a fresh pool of
/// \p Threads threads, after a warm-up of 100.
DispatchMeasurement poolDispatch(unsigned Threads, uint64_t Dispatches) {
  ThreadPool Pool(Threads);
  DispatchBody Body;
  for (unsigned I = 0; I != 100; ++I)
    Pool.parallelForChunks(0, DispatchChunks, 1, Body.fn());
  const uint64_t Warm = Body.runs();
  std::vector<double> Us(Dispatches);
  for (double &T : Us) {
    auto Start = Clock::now();
    Pool.parallelForChunks(0, DispatchChunks, 1, Body.fn());
    T = std::chrono::duration<double, std::micro>(Clock::now() - Start)
            .count();
  }
  std::sort(Us.begin(), Us.end());
  return {Threads, Dispatches, Us[Us.size() / 2], Us[Us.size() * 9 / 10],
          Body.runs() - Warm};
}

std::vector<DispatchMeasurement> runDispatch() {
  return {poolDispatch(4, 2000), poolDispatch(8, 2000)};
}

void BM_PoolDispatch(benchmark::State &State) {
  ThreadPool Pool(unsigned(State.range(0)));
  DispatchBody Body;
  for (auto _ : State)
    Pool.parallelForChunks(0, DispatchChunks, 1, Body.fn());
  State.counters["chunks"] = double(Body.runs());
}
BENCHMARK(BM_PoolDispatch)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);

std::vector<Measurement> runFull() {
  return {lehmerRoundTrip(8), lehmerRoundTrip(9), composeChain(9, 5000000),
          explicitBuild(8),   explicitBuild(9),   vtStats(8),
          vtStats(9),         allPairs(7)};
}

std::string dispatchName(const DispatchMeasurement &D) {
  return "pool_dispatch_16_t" + std::to_string(D.Threads);
}

void printTable(const std::vector<Measurement> &Ms,
                const std::vector<DispatchMeasurement> &Ds) {
  std::printf("E20: rank-space kernel microbenchmarks (single thread)\n\n");
  TextTable Table;
  Table.setHeader({"kernel", "wall ms", "check"});
  for (const Measurement &M : Ms)
    Table.addRow({M.Name, formatDouble(M.Ms, 2), std::to_string(M.Check)});
  std::printf("%s\n", Table.render().c_str());

  std::printf("E35: one pool dispatch of 16 chunks of about 0.1 us\n\n");
  TextTable Dispatch;
  Dispatch.setHeader(
      {"threads", "dispatches", "median us", "p90 us", "chunks run"});
  for (const DispatchMeasurement &D : Ds)
    Dispatch.addRow({std::to_string(D.Threads), std::to_string(D.Dispatches),
                     formatDouble(D.MedianUs, 2), formatDouble(D.P90Us, 2),
                     std::to_string(D.Check)});
  std::printf("%s\n", Dispatch.render().c_str());
}

void printJson(const std::vector<Measurement> &Ms,
               const std::vector<DispatchMeasurement> &Ds) {
  JsonWriter W;
  W.beginObject();
  for (const Measurement &M : Ms)
    W.key(M.Name)
        .beginObject()
        .field("ms", M.Ms, 2)
        .field("check", M.Check)
        .endObject();
  for (const DispatchMeasurement &D : Ds)
    W.key(dispatchName(D))
        .beginObject()
        .field("median_us", D.MedianUs, 2)
        .field("p90_us", D.P90Us, 2)
        .field("dispatches", D.Dispatches)
        .field("check", D.Check)
        .endObject();
  W.endObject();
  std::fputs(W.str().c_str(), stdout);
}

/// Bounded sizes, invariant-checked: the perf-smoke ctest entry. Exercises
/// every kernel the full run does, at sizes that finish in about a second.
int runSmoke() {
  int Failures = 0;
  auto Expect = [&](const Measurement &M, uint64_t Want) {
    bool Ok = M.Check == Want;
    std::printf("%-24s %8.2f ms  check %llu %s\n", M.Name.c_str(), M.Ms,
                (unsigned long long)M.Check, Ok ? "ok" : "MISMATCH");
    Failures += !Ok;
  };
  uint64_t N8 = factorial(8);
  Expect(lehmerRoundTrip(8), N8 * (N8 - 1) / 2);
  // Pinned endpoint rank of the deterministic 100k-hop chain.
  Expect(composeChain(9, 100000), 5040);
  // star(7): 5040 nodes; table checksum = sum over all (u, g) of next(u, g).
  // Every node appears as a neighbor exactly degree times (the generator
  // action is a bijection per g), so the sum is degree * sum(node ids).
  uint64_t N7 = factorial(7);
  Expect(explicitBuild(7), 6 * (N7 * (N7 - 1) / 2));
  Expect(vtStats(7), 9);  // star(7) diameter, vertex-transitive.
  Expect(allPairs(6), 7); // star(6) diameter (paper: floor(3(k-1)/2)).
  // Every chunk of every dispatch ran exactly once.
  DispatchMeasurement D = poolDispatch(4, 200);
  Expect({dispatchName(D), D.MedianUs / 1000, D.Check}, 200 * DispatchChunks);
  return Failures ? 1 : 0;
}

} // namespace

int main(int argc, char **argv) {
  setGlobalThreadCount(1);
  bool Json = false, Smoke = false;
  for (int I = 1; I != argc; ++I) {
    Json |= std::strcmp(argv[I], "--json") == 0;
    Smoke |= std::strcmp(argv[I], "--smoke") == 0;
  }
  if (Smoke)
    return runSmoke();
  std::vector<Measurement> Ms = runFull();
  std::vector<DispatchMeasurement> Ds = runDispatch();
  if (Json) {
    printJson(Ms, Ds);
    return 0;
  }
  printTable(Ms, Ds);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
