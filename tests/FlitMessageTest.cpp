//===- tests/FlitMessageTest.cpp - Multi-flit message tests --------------===//
//
// Store-and-forward vs pipelined transfers: an F-flit message crossing d
// links store-and-forward takes d*F steps (the whole message is buffered
// per hop), while the pipelined (cut-through/wormhole) transfer -- F unit
// packets streaming back to back -- takes d + F - 1. This is the textbook
// comparison behind Section 3's wormhole remark.
//
//===----------------------------------------------------------------------===//

#include "comm/Simulator.h"

#include "Oracles.h"

#include <gtest/gtest.h>

using namespace scg;
using oracle::commModelName;

namespace {

std::vector<GenIndex> straightRoute(unsigned Hops) {
  // Alternate two involutions so the walk never backtracks to a queue
  // conflict: T2 T3 T2 T3 ... on a star graph.
  std::vector<GenIndex> Route;
  for (unsigned H = 0; H != Hops; ++H)
    Route.push_back(H % 2);
  return Route;
}

} // namespace

TEST(FlitMessage, StoreAndForwardTakesDistanceTimesFlits) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  for (unsigned Flits : {1u, 2u, 4u, 7u})
    for (unsigned Hops : {1u, 3u, 5u}) {
      NetworkSimulator Sim(Net, CommModel::AllPort);
      Sim.injectPacket(0, straightRoute(Hops), Flits);
      SimulationResult R = Sim.run(1000);
      ASSERT_TRUE(R.Completed);
      EXPECT_EQ(R.Steps, uint64_t(Hops) * Flits)
          << "hops=" << Hops << " flits=" << Flits;
    }
}

TEST(FlitMessage, PipelinedBeatsStoreAndForward) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  unsigned Hops = 5, Flits = 6;

  NetworkSimulator Saf(Net, CommModel::AllPort);
  Saf.injectPacket(0, straightRoute(Hops), Flits);
  uint64_t SafSteps = Saf.run(1000).Steps;

  NetworkSimulator Pipe(Net, CommModel::AllPort);
  for (unsigned F = 0; F != Flits; ++F)
    Pipe.injectPacket(0, straightRoute(Hops));
  uint64_t PipeSteps = Pipe.run(1000).Steps;

  EXPECT_EQ(SafSteps, uint64_t(Hops) * Flits);
  EXPECT_EQ(PipeSteps, uint64_t(Hops) + Flits - 1);
  EXPECT_LT(PipeSteps, SafSteps);
}

TEST(FlitMessage, BusyLinkBlocksOtherMessages) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  NetworkSimulator Sim(Net, CommModel::AllPort);
  // Two 3-flit messages over the same single link serialize.
  Sim.injectPacket(0, {0}, 3);
  Sim.injectPacket(0, {0}, 3);
  SimulationResult R = Sim.run(100);
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.Steps, 6u); // two 3-step occupancies back to back.
}

// Regression for the single-port port violation: a node occupied by a
// multi-flit store-and-forward transmission on one link must not start a
// second transmission on another link. Pre-fix, SelectLink only checked
// the busy *link*, so the two messages below overlapped (4 steps,
// impossibly fast); the correct serialization takes 3 + 3 = 6.
TEST(FlitMessage, SinglePortSerializesMultiFlitAcrossLinks) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  NetworkSimulator Sim(Net, CommModel::SinglePort);
  Sim.injectPacket(0, {0}, 3);
  Sim.injectPacket(0, {1}, 3);
  SimulationResult R = Sim.run(100);
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.Steps, 6u); // two 3-step port occupancies back to back.
  EXPECT_EQ(R.BusyLinkSteps, 6u);
}

// Same rule at saturation: d multi-flit messages on the d distinct links
// of one node serialize into d * F port-busy steps under single-port,
// while all-port genuinely overlaps them (F steps).
TEST(FlitMessage, SinglePortSaturatedNodeSerializesAllLinks) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  unsigned Degree = Net.degree(), Flits = 4;
  for (CommModel Model : {CommModel::SinglePort, CommModel::AllPort}) {
    NetworkSimulator Sim(Net, Model);
    for (GenIndex G = 0; G != Degree; ++G)
      Sim.injectPacket(0, {G}, Flits);
    SimulationResult R = Sim.run(1000);
    ASSERT_TRUE(R.Completed);
    uint64_t Want =
        Model == CommModel::SinglePort ? uint64_t(Degree) * Flits : Flits;
    EXPECT_EQ(R.Steps, Want) << commModelName(Model);
    EXPECT_EQ(R.BusyLinkSteps, uint64_t(Degree) * Flits)
        << commModelName(Model);
  }
}

// A single-flit packet queued at a port mid-way through a multi-flit
// transmission waits for the occupancy to end even on an idle link.
TEST(FlitMessage, SinglePortUnitPacketWaitsForBusyPort) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  NetworkSimulator Sim(Net, CommModel::SinglePort);
  Sim.injectPacket(0, {0}, 3); // occupies the port for steps 0..2.
  Sim.injectPacket(0, {1});    // must wait until step 3.
  SimulationResult R = Sim.run(100);
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.Steps, 4u);
  EXPECT_EQ(R.BusyLinkSteps, 4u);
}

// BusyLinkSteps accounts a multi-flit message-hop as Flits link-steps
// while Transmissions stays one per message-hop, and utilization derives
// from occupancy, not message-hops.
TEST(FlitMessage, UtilizationCountsOccupiedLinkSteps) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  NetworkSimulator Sim(Net, CommModel::AllPort);
  Sim.injectPacket(0, {0, 1}, 3);
  SimulationResult R = Sim.run(100);
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.Steps, 6u);
  EXPECT_EQ(R.Transmissions, 2u); // message-hops.
  EXPECT_EQ(R.BusyLinkSteps, 6u); // 2 hops x 3 occupied steps each.
  uint64_t Links = uint64_t(Net.numNodes()) * Net.degree();
  EXPECT_DOUBLE_EQ(R.LinkUtilization, 6.0 / double(Links * R.Steps));
}

TEST(FlitMessage, MixedTrafficConserves) {
  ExplicitScg Net(SuperCayleyGraph::star(5));
  NetworkSimulator Sim(Net, CommModel::AllPort);
  unsigned Injected = 0;
  for (NodeId U = 0; U < Net.numNodes(); U += 7) {
    Sim.injectPacket(U, straightRoute(3), 1 + (U % 4));
    ++Injected;
  }
  SimulationResult R = Sim.run(10000);
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.Delivered, Injected);
}
