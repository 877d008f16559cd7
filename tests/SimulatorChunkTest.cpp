//===- tests/SimulatorChunkTest.cpp - Multi-chunk simulator goldens ------===//
//
// The simulator step runs over fixed node chunks on the ThreadPool, and the
// k = 4 goldens of tests/golden/simulator.txt are one chunk each. These
// cases run on star(7) and MS(2,3) (5040 nodes, many chunks), so a packet
// crosses chunks on most hops: mixed pre-run and scheduled traffic with
// multi-flit and zero-hop packets under all three models, a capped
// closed-loop run with injections still deferred, and a stalled
// single-dimension cycle. Every SimulationResult field and the GoldenStream
// digest (which folds every delivery in delivery order) are frozen, with a
// ModelInvariantChecker attached, and each case must give the same line at
// 1, 2 and 8 pool threads and the same result with no observer attached.
//
// Plus the balance claim of the paper's Section 6: in a total exchange with
// one packet per (source, relative label), routed by the QueryEngine, every
// arc of one generator carries the same number of packets, because left
// translation maps each packet's path onto every other source's.
//
//===----------------------------------------------------------------------===//

#include "SimGolden.h"

#include "query/QueryEngine.h"
#include "support/Format.h"
#include "support/ThreadPool.h"

#include "Oracles.h"

#include <gtest/gtest.h>

using namespace scg;
using oracle::commModelName;

namespace {

const std::vector<CommModel> AllModels = {
    CommModel::AllPort, CommModel::SinglePort, CommModel::SingleDimension};

const std::vector<unsigned> ThreadCounts = {1, 2, 8};

/// Restores automatic pool sizing when a test ends.
struct PoolSizeGuard {
  ~PoolSizeGuard() { setGlobalThreadCount(0); }
};

std::vector<SuperCayleyGraph> chunkedNetworks() {
  return {SuperCayleyGraph::star(7),
          SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 3)};
}

std::vector<GenIndex> randomRoute(SplitMix64 &Rng, const ExplicitScg &Net,
                                  unsigned MaxLen) {
  std::vector<GenIndex> Route(1 + Rng.nextBelow(MaxLen));
  for (GenIndex &G : Route)
    G = GenIndex(Rng.nextBelow(Net.degree()));
  return Route;
}

/// Pre-run packets and injections scheduled over the first 24 steps, out
/// of step order: random routes, every fourth message multi-flit, and a
/// few zero-hop packets among both.
void fillMixed(NetworkSimulator &Sim, const ExplicitScg &Net, uint64_t Seed) {
  SplitMix64 Rng(Seed);
  for (unsigned P = 0; P != 6000; ++P)
    Sim.injectPacket(Rng.nextBelow(Net.numNodes()), randomRoute(Rng, Net, 5),
                     P % 4 == 0 ? 1 + P % 3 : 1);
  for (unsigned Z = 0; Z != 40; ++Z)
    Sim.injectPacket(Rng.nextBelow(Net.numNodes()), {});
  for (unsigned P = 0; P != 4000; ++P) {
    std::vector<GenIndex> Route;
    if (P % 9 != 0)
      Route = randomRoute(Rng, Net, 6);
    Sim.scheduleInjection((P * 13) % 24, Rng.nextBelow(Net.numNodes()),
                          Route, P % 5 == 0 ? 2 : 1);
  }
}

/// Closed loop at a depth limit of 2: pre-run traffic, three nodes far
/// apart (so in different chunks) flooded at step 0, and random scheduled
/// injections, a fifth zero-hop. The cap at step 12 lands while the
/// flooded nodes still hold deferred injections.
void fillClosedCapped(NetworkSimulator &Sim, const ExplicitScg &Net,
                      uint64_t Seed) {
  Sim.setClosedLoop(2);
  SplitMix64 Rng(Seed);
  for (unsigned P = 0; P != 3000; ++P)
    Sim.injectPacket(Rng.nextBelow(Net.numNodes()), randomRoute(Rng, Net, 4),
                     P % 6 == 0 ? 2 : 1);
  const NodeId Flooded[] = {0, Net.numNodes() / 2 + 1, Net.numNodes() - 1};
  for (unsigned P = 0; P != 4000; ++P) {
    bool Flood = P < 150;
    uint64_t Step = Flood ? 0 : (P * 7) % 11;
    NodeId Src = Flood ? Flooded[P % 3] : Rng.nextBelow(Net.numNodes());
    std::vector<GenIndex> Route;
    if (P % 5 != 0)
      Route = randomRoute(Rng, Net, 4);
    Sim.scheduleInjection(Step, Src, Route, P % 7 == 0 ? 2 : 1);
  }
}

/// The dimension cycle schedules generator 0 and the last generator only
/// (MS(2,3)'s swap), and every fourth route also needs generator 1, so
/// those packets park for good.
void fillStalled(NetworkSimulator &Sim, const ExplicitScg &Net,
                 uint64_t Seed) {
  const GenIndex Last = GenIndex(Net.degree() - 1);
  Sim.setDimensionCycle({0, Last});
  SplitMix64 Rng(Seed);
  for (unsigned P = 0; P != 5000; ++P) {
    std::vector<GenIndex> Route(1 + Rng.nextBelow(4));
    for (GenIndex &G : Route)
      G = Rng.nextBelow(2) ? Last : GenIndex(0);
    if (P % 4 == 0)
      Route[Rng.nextBelow(Route.size())] = 1;
    Sim.injectPacket(Rng.nextBelow(Net.numNodes()), Route,
                     P % 8 == 0 ? 3 : 1);
  }
}

/// Every SimulationResult field and the observer stream of one run.
std::string renderAll(const SimulationResult &R, const GoldenStream &S) {
  return golden::render(R) + " exec=" + std::to_string(R.ExecutedSteps) +
         " qsteps=" + std::to_string(R.QueuedPacketSteps) + " | " +
         golden::render(S);
}

/// Runs \p Fill-ed traffic at each pool size, observed (GoldenStream and
/// ModelInvariantChecker) and unobserved, and checks every run against the
/// golden \p Name.
template <typename FillFn>
SimulationResult expectChunkedGolden(const std::string &Name,
                                     const ExplicitScg &Net, CommModel Model,
                                     uint64_t MaxSteps, FillFn Fill) {
  PoolSizeGuard Guard;
  SimulationResult First;
  for (unsigned Threads : ThreadCounts) {
    setGlobalThreadCount(Threads);
    const std::string What = Name + " @" + std::to_string(Threads);
    NetworkSimulator Sim(Net, Model);
    Fill(Sim);
    GoldenStream Stream;
    ModelInvariantChecker Checker;
    Sim.addObserver(&Stream);
    Sim.addObserver(&Checker);
    SimulationResult R = Sim.run(MaxSteps);
    EXPECT_TRUE(Checker.clean()) << What << "\n" << Checker.report();
    EXPECT_EQ(R.ExecutedSteps, Stream.OnSteps) << What;
    EXPECT_EQ(R.QueuedPacketSteps, Stream.QueuedSum) << What;
    expectGolden(Name, renderAll(R, Stream));
    NetworkSimulator Plain(Net, Model);
    Fill(Plain);
    EXPECT_EQ(Plain.run(MaxSteps), R) << What;
    if (Threads == ThreadCounts.front())
      First = R;
  }
  return First;
}

} // namespace

TEST(SimulatorChunks, MixedTrafficEveryModel) {
  for (const SuperCayleyGraph &Family : chunkedNetworks()) {
    ExplicitScg Net(Family);
    for (CommModel Model : AllModels) {
      SimulationResult R = expectChunkedGolden(
          "chunked-mixed/" + Family.name() + "/" + commModelName(Model), Net,
          Model, 100000,
          [&](NetworkSimulator &Sim) { fillMixed(Sim, Net, 0xC4A1); });
      EXPECT_TRUE(R.Completed);
      EXPECT_EQ(R.Delivered, 10040u);
    }
  }
}

TEST(SimulatorChunks, ClosedLoopCappedWhileDeferred) {
  for (const SuperCayleyGraph &Family : chunkedNetworks()) {
    ExplicitScg Net(Family);
    for (CommModel Model : AllModels) {
      SimulationResult R = expectChunkedGolden(
          "chunked-closed-capped/" + Family.name() + "/" +
              commModelName(Model),
          Net, Model, 12,
          [&](NetworkSimulator &Sim) { fillClosedCapped(Sim, Net, 0xC105); });
      EXPECT_FALSE(R.Completed);
      EXPECT_GT(R.DeferredInjections, 0u);
    }
  }
}

TEST(SimulatorChunks, StalledDimensionCycle) {
  for (const SuperCayleyGraph &Family : chunkedNetworks()) {
    ExplicitScg Net(Family);
    SimulationResult R = expectChunkedGolden(
        "chunked-stalled/" + Family.name(), Net, CommModel::SingleDimension,
        5000, [&](NetworkSimulator &Sim) { fillStalled(Sim, Net, 0x57A1); });
    EXPECT_FALSE(R.Completed);
    EXPECT_EQ(R.Steps, 5000u);
  }
}

namespace {

/// Counts the transmissions started on every directed link.
struct ArcLoad final : SimObserver {
  unsigned Degree = 0;
  std::vector<uint64_t> Count;
  void onRunBegin(const NetworkSimulator &Sim) override {
    Degree = Sim.net().degree();
    Count.assign(size_t(Sim.net().numNodes()) * Degree, 0);
  }
  void onStep(const NetworkSimulator &, const StepEvents &E) override {
    for (const LinkActivity &A : E.Active)
      if (A.Started)
        ++Count[size_t(A.Node) * Degree + A.Link];
  }
};

} // namespace

TEST(SimulatorChunks, TotalExchangeLoadsEveryArcOfAGeneratorEqually) {
  PoolSizeGuard Guard;
  for (const SuperCayleyGraph &Family :
       {SuperCayleyGraph::star(5), SuperCayleyGraph::star(6),
        SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2)}) {
    ExplicitScg Net(Family);
    const NodeId N = Net.numNodes();
    const unsigned Degree = Net.degree();
    // Node Rel's label is its relative label from node 0, the identity.
    std::vector<Permutation> Rels;
    for (NodeId Rel = 1; Rel != N; ++Rel)
      Rels.push_back(Net.label(Rel));
    RouteArena Routes = QueryEngine(Family).routeBatchRelative(Rels);
    std::vector<uint64_t> Uses(Degree, 0);
    for (GenIndex G : Routes.Hops)
      ++Uses[G];
    for (unsigned Threads : ThreadCounts) {
      setGlobalThreadCount(Threads);
      const std::string What = Family.name() + " @" + std::to_string(Threads);
      NetworkSimulator Sim(Net, CommModel::AllPort);
      for (NodeId S = 0; S != N; ++S)
        for (size_t I = 0; I != Routes.size(); ++I) {
          std::span<const GenIndex> Route = Routes.route(I);
          Sim.injectPacket(S, {Route.begin(), Route.end()});
        }
      ArcLoad Load;
      Sim.addObserver(&Load);
      ASSERT_TRUE(Sim.run(uint64_t(N) * 64).Completed) << What;
      for (GenIndex G = 0; G != Degree; ++G) {
        uint64_t Max = 0, Sum = 0;
        for (NodeId U = 0; U != N; ++U) {
          uint64_t C = Load.Count[size_t(U) * Degree + G];
          EXPECT_EQ(C, Uses[G]) << What << " node " << U << " gen " << G;
          Max = std::max(Max, C);
          Sum += C;
        }
        ASSERT_GT(Sum, 0u) << What << " gen " << G;
        EXPECT_EQ(double(Max) / (double(Sum) / double(N)), 1.0)
            << What << " gen " << G;
      }
    }
  }
}
