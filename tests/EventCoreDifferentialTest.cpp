//===- tests/EventCoreDifferentialTest.cpp - Simulator goldens -----------===//
//
// Pins the simulator to the outputs its step and event engines agreed on
// byte for byte before they were merged into one active-set loop: every
// SimulationResult field, the onStep count, the observer stream counts,
// and every packet's delivery step (tests/golden/simulator.txt), for every
// network family at k = 4 across all three communication models, under
// permutation-routing traffic, mixed random multi-flit traffic, timed
// workload injections, MaxSteps caps, and stalled single-dimension
// schedules. A closed-loop schedule capped with injections still deferred
// is pinned the same way, frozen from the global retry FIFO that per-node
// FIFOs replaced. A ModelInvariantChecker rides along on every run (any
// violation is a test failure), and the result's executed-step count and
// queued-packet sum must match what the observer was shown. Plus the
// idle-step jump: injections 10^12 steps apart and a stalled run capped at
// ~0 both finish at once.
//
//===----------------------------------------------------------------------===//

#include "Oracles.h"
#include "SimGolden.h"

#include "comm/PermutationRouting.h"
#include "emulation/SdcEmulation.h"

#include "support/Format.h"

#include <chrono>

using namespace scg;
using oracle::commModelName;
using oracle::workloadKindName;

namespace {

const std::vector<CommModel> AllModels = {
    CommModel::AllPort, CommModel::SinglePort, CommModel::SingleDimension};

/// Deterministic mixed traffic: random valid routes, every fourth packet a
/// multi-flit message, plus a few zero-hop packets.
void injectMixed(NetworkSimulator &Sim, const ExplicitScg &Net,
                 unsigned Count, uint64_t Seed, unsigned ZeroHop = 0) {
  SplitMix64 Rng(Seed);
  for (unsigned P = 0; P != Count; ++P) {
    NodeId Src = Rng.nextBelow(Net.numNodes());
    unsigned Len = 1 + Rng.nextBelow(5);
    std::vector<GenIndex> Route;
    for (unsigned H = 0; H != Len; ++H)
      Route.push_back(Rng.nextBelow(Net.degree()));
    Sim.injectPacket(Src, Route, P % 4 == 0 ? 1 + P % 3 : 1);
  }
  for (unsigned Z = 0; Z != ZeroHop; ++Z)
    Sim.injectPacket(Rng.nextBelow(Net.numNodes()), {});
}

/// Runs \p Fill-ed traffic on (Net, Model) with a GoldenStream and a
/// ModelInvariantChecker attached, checks the checker is clean and the
/// run matches the golden \p Name, and returns the result.
template <typename FillFn>
SimulationResult expectRunGolden(const std::string &Name,
                                 const ExplicitScg &Net, CommModel Model,
                                 uint64_t MaxSteps, FillFn Fill) {
  NetworkSimulator Sim(Net, Model);
  Fill(Sim);
  GoldenStream Stream;
  ModelInvariantChecker Checker;
  Sim.addObserver(&Stream);
  Sim.addObserver(&Checker);
  SimulationResult R = Sim.run(MaxSteps);
  EXPECT_TRUE(Checker.clean()) << Name << "\n" << Checker.report();
  expectGolden(Name, golden::render(R, Stream));
  // The native occupancy accounting covers exactly the steps observers see.
  EXPECT_EQ(R.ExecutedSteps, Stream.OnSteps) << Name;
  EXPECT_EQ(R.QueuedPacketSteps, Stream.QueuedSum) << Name;
  return R;
}

} // namespace

//===----------------------------------------------------------------------===//
// Mixed random multi-flit traffic, every family x model
//===----------------------------------------------------------------------===//

TEST(EventCoreDifferential, MixedTrafficEveryFamilyAndModel) {
  for (const SuperCayleyGraph &Family : familiesAtK4()) {
    ExplicitScg Net(Family);
    for (CommModel Model : AllModels)
      expectRunGolden("mixed/" + Family.name() + "/" + commModelName(Model),
                      Net, Model, 4000, [&](NetworkSimulator &Sim) {
                        injectMixed(Sim, Net, 40, 0xD1FF + Net.degree(),
                                    /*ZeroHop=*/3);
                      });
  }
}

//===----------------------------------------------------------------------===//
// Permutation-routing traffic (lifted optimal star routes)
//===----------------------------------------------------------------------===//

TEST(EventCoreDifferential, PermutationRoutingEveryFamilyAndModel) {
  for (const SuperCayleyGraph &Family : familiesAtK4()) {
    if (!supportsStarEmulation(Family))
      continue;
    ExplicitScg Net(Family);
    TrafficPattern Pattern = randomTraffic(Net, 7);
    // Precompute the lifted routes once; the fill re-injects them per run.
    std::vector<std::vector<GenIndex>> Routes;
    for (NodeId U = 0; U != Net.numNodes(); ++U)
      Routes.push_back(oracle::routeViaStarEmulation(Family, Net.label(U),
                                                     Net.label(Pattern[U]))
                           .hops());
    for (CommModel Model : AllModels)
      expectRunGolden("permutation/" + Family.name() + "/" +
                          commModelName(Model),
                      Net, Model, 100000, [&](NetworkSimulator &Sim) {
                        for (NodeId U = 0; U != Net.numNodes(); ++U)
                          Sim.injectPacket(U, Routes[U]);
                      });
  }
}

//===----------------------------------------------------------------------===//
// Timed workload injections (the open-loop traffic path)
//===----------------------------------------------------------------------===//

TEST(EventCoreDifferential, WorkloadTraceEveryModel) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  for (WorkloadKind Kind :
       {WorkloadKind::UniformRandom, WorkloadKind::Hotspot,
        WorkloadKind::Transpose, WorkloadKind::BurstyUniform}) {
    WorkloadSpec Spec;
    Spec.Kind = Kind;
    Spec.InjectionRate = 0.05;
    Spec.Seed = 21;
    WorkloadGenerator Gen(Net, Spec);
    std::vector<TrafficEvent> Trace = Gen.generate(200);
    ASSERT_FALSE(Trace.empty());
    for (CommModel Model : AllModels)
      expectRunGolden("workload/" + workloadKindName(Kind) + "/" +
                          commModelName(Model),
                      Net, Model, 5000, [&](NetworkSimulator &Sim) {
                        for (const TrafficEvent &E : Trace) {
                          std::vector<GenIndex> Route;
                          if (E.Src != E.Dst)
                            Route = oracle::routeViaStarEmulation(
                                        Net.network(), Net.label(E.Src),
                                        Net.label(E.Dst))
                                        .hops();
                          Sim.scheduleInjection(E.Step, E.Src, Route,
                                                E.Src % 5 == 0 ? 2 : 1);
                        }
                      });
  }
}

TEST(EventCoreDifferential, ClosedLoopScheduleCappedWhileDeferred) {
  // Closed loop at a depth limit of 2 on star(4): pre-run packets already
  // fill some nodes' queues at step 0, injections are scheduled out of
  // step order (a fifth of them zero-hop), and node 0 alone is offered
  // 40 injections at step 0. Node 0 has 3 links, so by the cap at step 10
  // at most 2 + 3 * 10 of those can have been admitted: the run ends with
  // injections still deferred, which count in neither deferred counter.
  ExplicitScg Net(SuperCayleyGraph::star(4));
  auto Fill = [&](NetworkSimulator &Sim) {
    Sim.setClosedLoop(2);
    injectMixed(Sim, Net, 30, 0xC105ED);
    SplitMix64 Rng(0x5EED);
    for (unsigned P = 0; P != 160; ++P) {
      bool Flood = P < 40;
      uint64_t Step = Flood ? 0 : (P * 7) % 9;
      NodeId Src = Flood ? 0 : Rng.nextBelow(6);
      unsigned Len = P % 5 == 0 ? 0 : 1 + Rng.nextBelow(4);
      std::vector<GenIndex> Route;
      for (unsigned H = 0; H != Len; ++H)
        Route.push_back(Rng.nextBelow(Net.degree()));
      Sim.scheduleInjection(Step, Src, Route, P % 7 == 0 ? 2 : 1);
    }
  };
  for (CommModel Model : AllModels) {
    SimulationResult R = expectRunGolden(
        "closed-capped/" + commModelName(Model), Net, Model, 10, Fill);
    EXPECT_FALSE(R.Completed);
    EXPECT_GT(R.DeferredInjections, 0u);
    NetworkSimulator Native(Net, Model);
    Fill(Native);
    EXPECT_EQ(Native.run(10), R) << commModelName(Model);
  }
}

//===----------------------------------------------------------------------===//
// MaxSteps caps: results must hold at every truncation point
//===----------------------------------------------------------------------===//

TEST(EventCoreDifferential, CappedRunsAgreeAtEveryHorizon) {
  ExplicitScg Net(SuperCayleyGraph::bubbleSort(4));
  for (CommModel Model : AllModels)
    for (uint64_t MaxSteps : {0u, 1u, 2u, 3u, 5u, 9u, 17u, 40u})
      expectRunGolden("capped/" + commModelName(Model) + "/" +
                          std::to_string(MaxSteps),
                      Net, Model, MaxSteps, [&](NetworkSimulator &Sim) {
                        injectMixed(Sim, Net, 30, 99, /*ZeroHop=*/2);
                      });
}

TEST(EventCoreDifferential, CapLandsMidMultiFlitMessage) {
  // An 8-flit message on an otherwise idle network: every cap inside the
  // occupancy window must yield the frozen BusyLinkSteps accounting.
  ExplicitScg Net(SuperCayleyGraph::star(4));
  for (CommModel Model : AllModels)
    for (uint64_t MaxSteps = 0; MaxSteps != 12; ++MaxSteps)
      expectRunGolden("flit-cap/" + commModelName(Model) + "/" +
                          std::to_string(MaxSteps),
                      Net, Model, MaxSteps, [&](NetworkSimulator &Sim) {
                        Sim.injectPacket(0, {0, 1}, /*FlitCount=*/8);
                        Sim.injectPacket(1, {1}, /*FlitCount=*/1);
                      });
}

//===----------------------------------------------------------------------===//
// Stalled single-dimension schedules (generator absent from the cycle)
//===----------------------------------------------------------------------===//

TEST(EventCoreDifferential, StalledDimensionCycleGrindsToCap) {
  // Routes over generator 2, but the cycle only ever schedules 0 and 1:
  // the run reports a capped, incomplete result at exactly MaxSteps.
  ExplicitScg Net(SuperCayleyGraph::star(4));
  SimulationResult R = expectRunGolden(
      "stalled/5000", Net, CommModel::SingleDimension, 5000,
      [&](NetworkSimulator &Sim) {
        Sim.setDimensionCycle({0, 1});
        Sim.injectPacket(0, {0, 2, 1});
        Sim.injectPacket(2, {2});
      });
  EXPECT_FALSE(R.Completed);
  EXPECT_EQ(R.Steps, 5000u);
}

TEST(EventCoreDifferential, StalledDimensionCycleEndsAtCapPromptly) {
  // Nothing is ever due again once the first packet parks on generator 2,
  // so even an unbounded cap returns at once instead of running empty
  // steps until 2^64 - 1.
  ExplicitScg Net(SuperCayleyGraph::star(4));
  NetworkSimulator Sim(Net, CommModel::SingleDimension);
  Sim.setDimensionCycle({0, 1});
  Sim.injectPacket(0, {0, 2, 1});
  GoldenStream Stream;
  Sim.addObserver(&Stream);
  auto Start = std::chrono::steady_clock::now();
  SimulationResult R = Sim.run(~uint64_t(0));
  double Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  EXPECT_FALSE(R.Completed);
  EXPECT_EQ(R.Steps, ~uint64_t(0));
  EXPECT_EQ(R.Transmissions, 1u);
  EXPECT_EQ(R.Delivered, 0u);
  EXPECT_EQ(Stream.OnSteps, 1u); // the one step that moved the packet.
  EXPECT_LT(Seconds, 1.0);
}

//===----------------------------------------------------------------------===//
// Idle-step jump
//===----------------------------------------------------------------------===//

TEST(EventCoreDifferential, FarApartInjectionsSkipIdleSteps) {
  // Two one-hop packets 10^12 steps apart. Generator 1 is the one the
  // default single-dimension cycle (0, 1, 2) schedules at step 10^12
  // (10^12 = 1 mod 3), so every model delivers the second packet at its
  // injection step and the run ends after step 10^12.
  constexpr uint64_t Far = 1000000000000ull;
  ExplicitScg Net(SuperCayleyGraph::star(4));
  for (CommModel Model : AllModels) {
    NetworkSimulator Sim(Net, Model);
    Sim.scheduleInjection(0, 0, {0});
    Sim.scheduleInjection(Far, 5, {1});
    GoldenStream Stream;
    ModelInvariantChecker Checker;
    Sim.addObserver(&Stream);
    Sim.addObserver(&Checker);
    auto Start = std::chrono::steady_clock::now();
    SimulationResult R = Sim.run(~uint64_t(0));
    double Seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - Start)
                         .count();
    std::string What = commModelName(Model);
    EXPECT_TRUE(R.Completed) << What;
    EXPECT_EQ(R.Steps, Far + 1) << What;
    EXPECT_EQ(R.Delivered, 2u) << What;
    EXPECT_EQ(R.Transmissions, 2u) << What;
    EXPECT_EQ(R.BusyLinkSteps, 2u) << What;
    EXPECT_EQ(Stream.OnSteps, 2u) << What;
    EXPECT_TRUE(Checker.clean()) << What << "\n" << Checker.report();
    EXPECT_LT(Seconds, 1.0) << What;
  }
}

//===----------------------------------------------------------------------===//
// The open-loop driver
//===----------------------------------------------------------------------===//

TEST(EventCoreDifferential, TrafficLoadDriverMatchesGoldens) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  WorkloadSpec Spec;
  Spec.Kind = WorkloadKind::UniformRandom;
  Spec.InjectionRate = 0.08;
  Spec.Seed = 5;
  for (CommModel Model : AllModels) {
    std::string Line;
    golden::runTraffic(Net, Model, Spec, 400, {}, Line);
    expectGolden("driver/" + commModelName(Model), Line);
  }
}
