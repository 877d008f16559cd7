//===- tests/TrafficSetupDifferentialTest.cpp - Route setup goldens ------===//
//
// The traffic driver's route setup dedupes the trace to relative labels
// and batch-routes them through QueryEngine::routeBatchRelative. For every
// distinct label of each trace below, the batched route must equal the
// scalar oracle::routeViaStarEmulation route hop for hop, and the driver
// result must match the golden frozen when the batched and the scalar
// per-label setups (and the step and event engines) still agreed on it. The
// closed-loop source rides the same harness, and every result must be
// byte-identical at 1, 2, and 8 threads (the parallel batch chunking is a
// function of the batch length only, never the thread count).
//
//===----------------------------------------------------------------------===//

#include "Oracles.h"
#include "SimGolden.h"

#include "query/QueryEngine.h"
#include "support/ThreadPool.h"

using namespace scg;
using oracle::commModelName;

namespace {

WorkloadSpec uniformAt(double Rate, uint64_t Seed = 31) {
  WorkloadSpec Spec;
  Spec.Kind = WorkloadKind::UniformRandom;
  Spec.InjectionRate = Rate;
  Spec.Seed = Seed;
  return Spec;
}

struct NetCase {
  SuperCayleyGraph Family;
  double Rate;
  uint64_t Steps;
};

std::vector<NetCase> diffCases() {
  return {{SuperCayleyGraph::star(4), 0.15, 200},
          {SuperCayleyGraph::transpositionNetwork(4), 0.15, 200},
          {SuperCayleyGraph::insertionSelection(4), 0.15, 200},
          {SuperCayleyGraph::star(5), 0.20, 100},
          {SuperCayleyGraph::star(6), 0.20, 40}};
}

/// The distinct relative labels label(src)^-1 o label(dst) of a trace's
/// routed events, in first-seen order.
std::vector<Permutation> distinctLabels(const ExplicitScg &Net,
                                        const std::vector<TrafficEvent> &T) {
  std::vector<uint8_t> Seen(Net.numNodes(), 0);
  std::vector<Permutation> Rels;
  for (const TrafficEvent &E : T) {
    if (E.Src == E.Dst)
      continue;
    Permutation Rel = Net.label(E.Src).inverse().compose(Net.label(E.Dst));
    uint8_t &S = Seen[Net.rankOf(Rel)];
    if (!S) {
      S = 1;
      Rels.push_back(std::move(Rel));
    }
  }
  return Rels;
}

} // namespace

TEST(TrafficSetupDifferential, BatchedMatchesLegacyAcrossFamiliesModels) {
  for (const NetCase &C : diffCases()) {
    ExplicitScg Net(C.Family);
    const SuperCayleyGraph &Host = Net.network();
    // Batched == scalar, hop for hop, on every distinct label.
    std::vector<Permutation> Rels = distinctLabels(
        Net, WorkloadGenerator(Net, uniformAt(C.Rate)).generate(C.Steps));
    RouteArena Arena = QueryEngine(Host).routeBatchRelative(Rels);
    ASSERT_EQ(Arena.size(), Rels.size()) << C.Family.name();
    for (size_t I = 0; I != Rels.size(); ++I) {
      std::vector<GenIndex> Scalar =
          oracle::routeViaStarEmulation(
              Host, Permutation::identity(Host.numSymbols()), Rels[I])
              .hops();
      std::span<const GenIndex> Batched = Arena.route(I);
      EXPECT_TRUE(std::equal(Batched.begin(), Batched.end(), Scalar.begin(),
                             Scalar.end()))
          << C.Family.name() << " label " << I;
    }

    for (CommModel Model :
         {CommModel::AllPort, CommModel::SinglePort,
          CommModel::SingleDimension}) {
      std::string Line;
      TrafficLoadResult A = golden::runTraffic(
          Net, Model, uniformAt(C.Rate), C.Steps, {}, Line);
      expectGolden("setup/" + C.Family.name() + "/" + commModelName(Model),
                   Line);
      // The dedup bookkeeping must be sane: at most one distinct label
      // per node (Cayley symmetry), at most one per offered message.
      EXPECT_EQ(A.DistinctLabels, Rels.size());
      EXPECT_LE(A.DistinctLabels, uint64_t(Net.numNodes()));
      EXPECT_LE(A.DistinctLabels, A.Offered);
      if (A.DistinctLabels) {
        EXPECT_DOUBLE_EQ(A.DedupFactor,
                         double(A.Offered) / double(A.DistinctLabels));
      }
    }
  }
}

TEST(TrafficSetupDifferential, BatchedSetupThreadCountInvariant) {
  // routeBatchRelative chunks by batch length only; the composed driver
  // result must be byte-identical at every thread count.
  ExplicitScg Net(SuperCayleyGraph::star(5));
  for (unsigned Threads : {1u, 2u, 8u}) {
    setGlobalThreadCount(Threads);
    std::string Line;
    golden::runTraffic(Net, CommModel::SinglePort, uniformAt(0.25), 120, {},
                       Line);
    expectGolden("setup/threads", Line);
  }
  setGlobalThreadCount(0);
}

TEST(TrafficSetupDifferential, ClosedLoopEngineAndThreadIdentity) {
  // Closed-loop admission (deferral, retry, depth accounting) must match
  // its golden at every thread count, in a regime where throttling
  // actually engages.
  ExplicitScg Net(SuperCayleyGraph::star(4));
  TrafficLoadOptions Closed;
  Closed.ClosedLoopMaxQueue = 2;
  for (CommModel Model :
       {CommModel::AllPort, CommModel::SinglePort,
        CommModel::SingleDimension}) {
    for (unsigned Threads : {1u, 2u, 8u}) {
      setGlobalThreadCount(Threads);
      std::string Line;
      TrafficLoadResult R = golden::runTraffic(Net, Model, uniformAt(0.5),
                                               200, Closed, Line);
      // Throttling must have engaged, or this test pins nothing.
      EXPECT_GT(R.Sim.DeferredInjections, 0u) << commModelName(Model);
      expectGolden("closed/" + commModelName(Model), Line);
    }
  }
  setGlobalThreadCount(0);
}
