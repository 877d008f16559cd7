//===- tests/SimulatorQueueTest.cpp - Intrusive link queue checks ---------===//
//
// NetworkSimulator keeps its per-link FIFOs as intrusive packet-id lists:
// flat head/tail/length words per link plus one next-packet link per
// packet. These tests pin what that layout must preserve:
//
//   drain and refill  one link is emptied and refilled several times, with
//                     batches of one (head == tail) and several packets,
//                     under all three models and with 1- and 3-flit
//                     messages; delivery order must be the link's FIFO
//                     order, which a stale head or tail after the queue
//                     empties would break
//   delivery steps    deliveryStep() agrees with the StepEvents delivery
//                     stream on mixed multi-hop traffic
//   no per-link heap  constructing a simulator takes the same number of
//                     allocations on star(5) (480 links) as on star(7)
//                     (30,240 links)
//
// The allocation count comes from replacing the global operator new in
// this test binary, which is why these checks live in a binary of their
// own.
//
//===----------------------------------------------------------------------===//

#include "comm/SimObserver.h"
#include "support/Format.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

using namespace scg;

static std::atomic<uint64_t> GHeapAllocations{0};

void *operator new(std::size_t Size) {
  ++GHeapAllocations;
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Size) { return ::operator new(Size); }
// The nothrow forms too (std::stable_sort's temporary buffer uses them), so
// every allocation is counted and freed by the matching replacement.
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  ++GHeapAllocations;
  return std::malloc(Size ? Size : 1);
}
void *operator new[](std::size_t Size, const std::nothrow_t &) noexcept {
  return ::operator new(Size, std::nothrow);
}
// Out of line, so the compiler does not pair an inlined free() with the
// operator new call it can see and warn about a mismatch.
[[gnu::noinline]] void operator delete(void *P) noexcept { std::free(P); }
[[gnu::noinline]] void operator delete(void *P, std::size_t) noexcept {
  std::free(P);
}
void operator delete[](void *P) noexcept { ::operator delete(P); }
void operator delete[](void *P, std::size_t) noexcept { ::operator delete(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept {
  ::operator delete(P);
}
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  ::operator delete(P);
}

namespace {

const std::vector<CommModel> AllModels = {
    CommModel::AllPort, CommModel::SinglePort, CommModel::SingleDimension};

/// Records every delivery reported through the observer hooks.
struct DeliveryLog final : SimObserver {
  std::vector<std::pair<uint32_t, uint64_t>> Deliveries; ///< (id, step).

  void onStep(const NetworkSimulator &, const StepEvents &E) override {
    for (uint32_t Id : E.Deliveries)
      Deliveries.push_back({Id, E.Step});
  }
};

/// Allocations made while constructing (and destroying) a simulator.
uint64_t constructionAllocations(const ExplicitScg &Net) {
  uint64_t Before = GHeapAllocations.load();
  { NetworkSimulator Sim(Net, CommModel::SinglePort); }
  return GHeapAllocations.load() - Before;
}

} // namespace

TEST(SimulatorQueue, DrainedLinkRefillsInFifoOrder) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  const NodeId Src = 5;
  const GenIndex Link = 1;
  // Batch sizes per round: single packets (head == tail) between deeper
  // refills. Rounds are far enough apart that the link drains to empty
  // before the next batch arrives, under every model and flit count.
  const std::vector<unsigned> Batches = {1, 3, 1, 4, 2, 1};
  const uint64_t Gap = 64;

  for (CommModel Model : AllModels)
    for (unsigned Flits : {1u, 3u}) {
      SCOPED_TRACE(commModelName(Model) + " flits=" + std::to_string(Flits));
      NetworkSimulator Sim(Net, Model);
      std::vector<uint32_t> Ids;
      std::vector<uint64_t> Round;
      for (size_t R = 0; R != Batches.size(); ++R)
        for (unsigned I = 0; I != Batches[R]; ++I) {
          Ids.push_back(Sim.scheduleInjection(R * Gap, Src, {Link}, Flits));
          Round.push_back(R);
        }
      ModelInvariantChecker Checker;
      Sim.addObserver(&Checker);
      SimulationResult Result = Sim.run(Batches.size() * Gap);
      ASSERT_TRUE(Result.Completed);
      EXPECT_TRUE(Checker.clean()) << Checker.report();
      EXPECT_EQ(Result.Delivered, Ids.size());
      EXPECT_EQ(Result.Transmissions, Ids.size());

      // One link, one message at a time: deliveries come in injection
      // order, each at least Flits steps after the previous one, and each
      // within its own round.
      for (size_t I = 0; I != Ids.size(); ++I) {
        uint64_t At = Sim.deliveryStep(Ids[I]);
        ASSERT_NE(At, NetworkSimulator::NotDelivered) << "packet " << I;
        EXPECT_GE(At, Round[I] * Gap + Flits - 1) << "packet " << I;
        EXPECT_LT(At, (Round[I] + 1) * Gap) << "packet " << I;
        if (I != 0) {
          EXPECT_GE(At, Sim.deliveryStep(Ids[I - 1]) + Flits)
              << "packet " << I;
        }
      }
      // Under all-port and single-port the link is free whenever its queue
      // is not, so the schedule is exact: the i-th packet of a round
      // starts at Round * Gap + i * Flits.
      if (Model != CommModel::SingleDimension) {
        size_t I = 0;
        for (size_t R = 0; R != Batches.size(); ++R)
          for (unsigned J = 0; J != Batches[R]; ++J, ++I)
            EXPECT_EQ(Sim.deliveryStep(Ids[I]),
                      R * Gap + uint64_t(J + 1) * Flits - 1)
                << "round " << R << " packet " << J;
      }
    }
}

TEST(SimulatorQueue, DeliveryStepsMatchTheEventStream) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  for (CommModel Model : AllModels) {
    SCOPED_TRACE(commModelName(Model));
    NetworkSimulator Sim(Net, Model);
    SplitMix64 Rng(0x51DE);
    const unsigned Count = 120;
    for (unsigned P = 0; P != Count; ++P) {
      std::vector<GenIndex> Route;
      for (unsigned H = 0, Len = Rng.nextBelow(5); H != Len; ++H)
        Route.push_back(Rng.nextBelow(Net.degree()));
      Sim.scheduleInjection(Rng.nextBelow(40), Rng.nextBelow(Net.numNodes()),
                            Route, P % 5 == 0 ? 2 : 1);
    }
    DeliveryLog Log;
    Sim.addObserver(&Log);
    SimulationResult Result = Sim.run(100000);
    ASSERT_TRUE(Result.Completed);
    ASSERT_EQ(Log.Deliveries.size(), Count);
    std::vector<uint64_t> FromStream(Count, NetworkSimulator::NotDelivered);
    for (auto [Id, Step] : Log.Deliveries)
      FromStream[Id] = Step;
    for (uint32_t Id = 0; Id != Count; ++Id)
      EXPECT_EQ(Sim.deliveryStep(Id), FromStream[Id]) << "packet " << Id;
  }
}

TEST(SimulatorQueue, UndeliveredPacketsReadNotDelivered) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  NetworkSimulator Sim(Net, CommModel::AllPort);
  Sim.injectPacket(0, {}); // zero-hop: delivered before the run.
  Sim.injectPacket(0, {0, 1, 0, 1, 0, 1});
  uint32_t Late = Sim.scheduleInjection(50, 3, {2});
  SimulationResult Result = Sim.run(3);
  EXPECT_FALSE(Result.Completed);
  EXPECT_EQ(Sim.deliveryStep(0), 0u);
  EXPECT_EQ(Sim.deliveryStep(1), NetworkSimulator::NotDelivered);
  EXPECT_EQ(Sim.deliveryStep(Late), NetworkSimulator::NotDelivered);
}

TEST(SimulatorQueue, ConstructionAllocationsIndependentOfNetworkSize) {
  ExplicitScg Small(SuperCayleyGraph::star(5));
  ExplicitScg Large(SuperCayleyGraph::star(7));
  uint64_t SmallAllocs = constructionAllocations(Small);
  uint64_t LargeAllocs = constructionAllocations(Large);
  // A handful of flat per-link and per-node arrays, and no allocation per
  // link: the deque-per-link layout made two per link (map and chunk).
  EXPECT_EQ(SmallAllocs, LargeAllocs);
  EXPECT_LT(LargeAllocs, 16u);
}
