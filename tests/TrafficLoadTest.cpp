//===- tests/TrafficLoadTest.cpp - Open-loop saturation sanity -----------===//
//
// The open-loop driver against ground truth on star(4):
//
//   near-zero load    every delivered packet's latency equals its greedy
//                     (lifted optimal star) route hop count -- no queueing,
//                     so simulateTrafficLoad ties exactly to the router's
//                     distances
//   past saturation   delivered throughput plateaus at network capacity
//                     instead of collapsing as offered load keeps rising,
//                     and latency rises steeply -- the defining shape of a
//                     saturation curve
//
// Plus the closed-loop source (injection throttled by source-node queue
// depth): at near-zero load it degenerates to the open-loop result
// exactly, and at overload it bounds queue occupancy by deferring
// injections. Plus MetricsRegistry plumbing for the traffic.* metrics, and
// the refusal of families that have no table-free route.
// Every driver call also matches its frozen golden (tests/SimGolden.h).
// Without a caller observer simulateTrafficLoad runs the simulator's
// uninstrumented loop, which records delivery steps and occupancy itself;
// on every family at k = 4 that must give the result the instrumented
// loop gives. And star(6) far past saturation, where each step starts
// hundreds to thousands of transmissions: every model, open and closed
// loop, unit and 3-flit messages, each clean under the
// ModelInvariantChecker, equal with and without an observer, and frozen.
// The same holds for closed-loop corners on star(5) that decide the order
// of deferred admissions: transpose traffic with zero-hop fixed points,
// all-port at queue limit 1, and single-port 3-flit messages.
//
//===----------------------------------------------------------------------===//

#include "SimGolden.h"

#include "query/QueryEngine.h"
#include "support/Metrics.h"

#include "Oracles.h"

#include <gtest/gtest.h>
#include <stdexcept>

using namespace scg;
using oracle::commModelName;

namespace {

WorkloadSpec uniformAt(double Rate, uint64_t Seed = 12) {
  WorkloadSpec Spec;
  Spec.Kind = WorkloadKind::UniformRandom;
  Spec.InjectionRate = Rate;
  Spec.Seed = Seed;
  return Spec;
}

/// simulateTrafficLoad, checked against the golden "traffic/<Name>".
TrafficLoadResult checkedLoad(const std::string &Name, const ExplicitScg &Net,
                              CommModel Model, const WorkloadSpec &Spec,
                              uint64_t Steps,
                              const TrafficLoadOptions &Options = {}) {
  std::string Line;
  TrafficLoadResult R =
      golden::runTraffic(Net, Model, Spec, Steps, Options, Line);
  expectGolden("traffic/" + Name, Line);
  return R;
}

/// simulateTrafficLoad twice: uninstrumented, and with a GoldenStream and
/// a ModelInvariantChecker attached. The checker must be clean, the
/// observed run must match the golden \p Name, and the two results must
/// be equal. Returns the uninstrumented result.
TrafficLoadResult checkedBothWays(const std::string &Name,
                                  const ExplicitScg &Net, CommModel Model,
                                  const WorkloadSpec &Spec, uint64_t Steps,
                                  TrafficLoadOptions Options) {
  SCOPED_TRACE(Name);
  TrafficLoadResult Native =
      simulateTrafficLoad(Net, Model, Spec, Steps, Options);
  GoldenStream Stream;
  ModelInvariantChecker Checker;
  Options.Observers = {&Stream, &Checker};
  TrafficLoadResult Observed =
      simulateTrafficLoad(Net, Model, Spec, Steps, Options);
  EXPECT_TRUE(Checker.clean()) << Checker.report();
  expectGolden(Name, golden::render(Observed, Stream));
  Observed.SetupSeconds = Native.SetupSeconds; // wall clock.
  EXPECT_EQ(Native, Observed);
  return Native;
}

} // namespace

TEST(TrafficLoad, NearZeroRateLatencyEqualsGreedyHopCount) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  // ~0.002 packets/node/step: queues are essentially always empty, so
  // every packet walks its route uncontended and latency == hop count,
  // packet by packet (means equal exactly, not approximately).
  TrafficLoadResult R = checkedLoad("near-zero/all-port", Net,
                                    CommModel::AllPort, uniformAt(0.002), 4000);
  ASSERT_GT(R.Offered, 50u);
  EXPECT_GT(R.Sim.Delivered, 0u);
  EXPECT_DOUBLE_EQ(R.MeanLatency, R.MeanHops);
  EXPECT_GE(R.P99Latency, R.P50Latency);
}

TEST(TrafficLoad, SinglePortNearZeroRateStillUncontended) {
  // Single-port serializes a node's ports, but at near-zero load a node
  // almost never holds two packets at once, so latency still equals hops.
  ExplicitScg Net(SuperCayleyGraph::star(4));
  TrafficLoadResult R =
      checkedLoad("near-zero/single-port", Net, CommModel::SinglePort,
                  uniformAt(0.0004), 12000);
  ASSERT_GT(R.Offered, 50u);
  EXPECT_DOUBLE_EQ(R.MeanLatency, R.MeanHops);
}

TEST(TrafficLoad, ThroughputPlateausPastSaturation) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  // Offered load far past saturation must not deliver less than moderate
  // overload: delivered throughput plateaus at capacity (a collapsing
  // simulator would show the 2x curve dropping).
  TrafficLoadResult Low = checkedLoad("plateau/low", Net,
                                      CommModel::SinglePort, uniformAt(0.05),
                                      1500);
  TrafficLoadResult High = checkedLoad("plateau/high", Net,
                                       CommModel::SinglePort, uniformAt(0.40),
                                       1500);
  TrafficLoadResult Extreme = checkedLoad("plateau/extreme", Net,
                                          CommModel::SinglePort,
                                          uniformAt(0.80), 1500);

  // Past saturation the network accepts less than offered...
  EXPECT_LT(High.DeliveredRate, High.OfferedRate * 0.95);
  // ...but keeps delivering near its plateau: doubling offered load again
  // must not collapse throughput. (A mild decline is real physics: under
  // FIFO round-robin, overload shifts service toward first-hop packets
  // that end the run as mid-flight inventory instead of deliveries.)
  EXPECT_GT(Extreme.DeliveredRate, High.DeliveredRate * 0.70);
  // And the plateau sits far above the uncongested delivered rate.
  EXPECT_GT(High.DeliveredRate, Low.DeliveredRate * 3.0);
  // Latency tells the same story from the other side.
  EXPECT_GT(High.MeanLatency, 2.0 * Low.MeanLatency);
  EXPECT_GT(High.MeanQueued, Low.MeanQueued);
}

TEST(TrafficLoad, ClosedLoopAtNearZeroLoadIsOpenLoop) {
  // With queues essentially always empty, the depth test never fires:
  // the closed-loop driver must reproduce the open-loop result exactly,
  // field for field, with zero deferrals.
  ExplicitScg Net(SuperCayleyGraph::star(4));
  TrafficLoadResult Open =
      checkedLoad("closed-near-zero/open", Net, CommModel::AllPort,
                  uniformAt(0.002), 4000);
  TrafficLoadOptions Closed;
  Closed.ClosedLoopMaxQueue = 2;
  TrafficLoadResult R =
      checkedLoad("closed-near-zero/closed", Net, CommModel::AllPort,
                  uniformAt(0.002), 4000, Closed);
  EXPECT_EQ(R.Sim.DeferredInjections, 0u);
  EXPECT_EQ(R.Sim.DeferredSteps, 0u);
  EXPECT_EQ(R.Sim.Delivered, Open.Sim.Delivered);
  EXPECT_EQ(R.Sim.Transmissions, Open.Sim.Transmissions);
  EXPECT_EQ(R.Sim.Steps, Open.Sim.Steps);
  EXPECT_EQ(R.Sim.MaxQueueLength, Open.Sim.MaxQueueLength);
  EXPECT_EQ(R.MeanLatency, Open.MeanLatency);
  EXPECT_EQ(R.MeanQueued, Open.MeanQueued);
}

TEST(TrafficLoad, ClosedLoopBoundsQueueOccupancyAtOverload) {
  // Far past saturation the open-loop source piles queues without bound;
  // the closed-loop source must defer injections instead, keeping mean
  // occupancy well below open loop while actually exercising deferral.
  ExplicitScg Net(SuperCayleyGraph::star(4));
  TrafficLoadResult Open =
      checkedLoad("closed-overload/open", Net, CommModel::SinglePort,
                  uniformAt(0.8), 1000);
  TrafficLoadOptions Closed;
  Closed.ClosedLoopMaxQueue = 3;
  TrafficLoadResult R =
      checkedLoad("closed-overload/closed", Net, CommModel::SinglePort,
                  uniformAt(0.8), 1000, Closed);
  EXPECT_GT(R.Sim.DeferredInjections, 0u);
  EXPECT_GT(R.Sim.DeferredSteps, R.Sim.DeferredInjections);
  EXPECT_LE(R.Sim.MaxQueueLength, Open.Sim.MaxQueueLength);
  EXPECT_LT(R.MeanQueued, Open.MeanQueued * 0.5);
  // Deferred traffic is offered but possibly never admitted: delivered
  // can only drop relative to open loop's everything-enters policy by
  // the amount still waiting, never grow past offered.
  EXPECT_LE(R.Sim.Delivered, R.Offered);
}

TEST(TrafficLoad, DedupStatisticsAreConsistent) {
  // Cayley symmetry: at most numNodes distinct relative labels however
  // long the trace runs, and the dedup factor is their ratio.
  ExplicitScg Net(SuperCayleyGraph::star(4));
  TrafficLoadResult R =
      checkedLoad("dedup", Net, CommModel::AllPort, uniformAt(0.4), 1500);
  ASSERT_GT(R.Offered, uint64_t(Net.numNodes()));
  EXPECT_GT(R.DistinctLabels, 0u);
  EXPECT_LE(R.DistinctLabels, uint64_t(Net.numNodes()));
  EXPECT_DOUBLE_EQ(R.DedupFactor,
                   double(R.Offered) / double(R.DistinctLabels));
  // A long uniform trace on 24 nodes revisits labels many times over.
  EXPECT_GT(R.DedupFactor, 5.0);
  EXPECT_GE(R.SetupSeconds, 0.0);
}

TEST(TrafficLoad, TableOnlyFamilyIsRejected) {
  // The driver routes table-free; a family without a table-free router is
  // refused up front, in every build, instead of simulating empty routes.
  for (NetworkKind Kind :
       {NetworkKind::MacroRotator, NetworkKind::RotationRotator}) {
    SuperCayleyGraph Family = SuperCayleyGraph::create(Kind, 2, 2);
    ASSERT_FALSE(QueryEngine::supportsTableFree(Family)) << Family.name();
    ExplicitScg Net(Family);
    EXPECT_THROW(
        simulateTrafficLoad(Net, CommModel::SinglePort, uniformAt(0.3), 20),
        std::invalid_argument)
        << Family.name();
    try {
      simulateTrafficLoad(Net, CommModel::SinglePort, uniformAt(0.3), 20);
    } catch (const std::invalid_argument &E) {
      EXPECT_NE(std::string(E.what()).find(Family.name()), std::string::npos)
          << E.what();
    }
  }
}

TEST(TrafficLoad, MetricsRegistryReceivesTrafficSeries) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  MetricsRegistry Reg;
  TrafficLoadOptions Options;
  Options.Registry = &Reg;
  TrafficLoadResult R = checkedLoad("metrics", Net, CommModel::AllPort,
                                    uniformAt(0.05), 500, Options);
  ASSERT_NE(Reg.find("traffic.offered"), nullptr);
  EXPECT_EQ(Reg.find("traffic.offered")->value(), double(R.Offered));
  EXPECT_EQ(Reg.find("traffic.delivered")->value(),
            double(R.Sim.Delivered));
  EXPECT_EQ(Reg.find("traffic.mean_latency")->value(), R.MeanLatency);
  EXPECT_EQ(Reg.find("traffic.p99_latency")->value(),
            double(R.P99Latency));
  EXPECT_EQ(Reg.find("traffic.max_queue_length")->value(),
            double(R.Sim.MaxQueueLength));
  // Setup and closed-loop telemetry flow through the same registry.
  ASSERT_NE(Reg.find("traffic.setup.distinct_labels"), nullptr);
  EXPECT_EQ(Reg.find("traffic.setup.distinct_labels")->value(),
            double(R.DistinctLabels));
  EXPECT_EQ(Reg.find("traffic.setup.events")->value(), double(R.Offered));
  EXPECT_EQ(Reg.find("traffic.setup.dedup_factor")->value(), R.DedupFactor);
  // Open-loop run: the closed-loop series exist and sit at zero.
  ASSERT_NE(Reg.find("traffic.closedloop.deferred_injections"), nullptr);
  EXPECT_EQ(Reg.find("traffic.closedloop.deferred_injections")->value(), 0.0);
  EXPECT_EQ(Reg.find("traffic.closedloop.max_queue")->value(), 0.0);
}

TEST(TrafficLoad, UninstrumentedRunMatchesObservedOnEveryFamily) {
  unsigned Families = 0;
  for (const SuperCayleyGraph &Family : familiesAtK4()) {
    if (!QueryEngine::supportsTableFree(Family))
      continue; // simulateTrafficLoad routes table-free.
    ++Families;
    ExplicitScg Net(Family);
    for (CommModel Model : {CommModel::AllPort, CommModel::SinglePort,
                            CommModel::SingleDimension})
      for (uint64_t ClosedLoop : {0u, 2u})
        for (unsigned Flits : {1u, 3u}) {
          SCOPED_TRACE(Family.name() + " " + commModelName(Model) +
                       " closed-loop=" + std::to_string(ClosedLoop) +
                       " flits=" + std::to_string(Flits));
          WorkloadSpec Spec = uniformAt(0.3, 40 + Flits);
          Spec.FlitCount = Flits;
          TrafficLoadOptions Options;
          Options.ClosedLoopMaxQueue = ClosedLoop;
          TrafficLoadResult Native =
              simulateTrafficLoad(Net, Model, Spec, 80, Options);
          // Any attached observer selects the instrumented loop; this one
          // also counts the steps it is shown.
          GoldenStream Stream;
          Options.Observers.push_back(&Stream);
          TrafficLoadResult Observed =
              simulateTrafficLoad(Net, Model, Spec, 80, Options);
          ASSERT_GT(Native.Offered, 0u);
          EXPECT_GT(Native.Sim.Delivered, 0u);
          EXPECT_EQ(Observed.Sim.ExecutedSteps, Stream.OnSteps);
          EXPECT_EQ(Observed.Sim.QueuedPacketSteps, Stream.QueuedSum);
          Observed.SetupSeconds = Native.SetupSeconds; // wall clock.
          EXPECT_EQ(Native, Observed)
              << golden::render(Native, Stream) << "\n"
              << golden::render(Observed, Stream);
        }
  }
  EXPECT_GE(Families, 5u);
}

TEST(TrafficLoad, SaturatedStar6MatchesGoldensAndUninstrumented) {
  // 720 nodes, 3,600 links, 0.8 packets per node per step: the step loop
  // starts far more transmissions per step than the k = 4 cases do.
  ExplicitScg Net(SuperCayleyGraph::star(6));
  for (CommModel Model : {CommModel::AllPort, CommModel::SinglePort,
                          CommModel::SingleDimension})
    for (uint64_t ClosedLoop : {0u, 4u})
      for (unsigned Flits : {1u, 3u}) {
        std::string Name = "saturated/star(6)/" + commModelName(Model) +
                           (ClosedLoop ? "/closed/" : "/open/") +
                           std::to_string(Flits) + "-flit";
        WorkloadSpec Spec = uniformAt(0.8, 60 + Flits);
        Spec.FlitCount = Flits;
        TrafficLoadOptions Options;
        Options.ClosedLoopMaxQueue = ClosedLoop;
        TrafficLoadResult R =
            checkedBothWays(Name, Net, Model, Spec, 60, Options);
        EXPECT_GT(R.Sim.Transmissions, 0u) << Name;
        if (ClosedLoop) {
          EXPECT_GT(R.Sim.DeferredInjections, 0u) << Name;
        }
      }
}

TEST(TrafficLoad, ClosedLoopDeferralCornersMatchGoldens) {
  // Closed-loop cases aimed at the order in which deferred injections are
  // admitted, on star(5) far past saturation:
  //   transpose     the 26 involution labels are their own transpose, so
  //                 those nodes inject zero-hop packets, which are never
  //                 throttled, while their other injections wait deferred
  //   all-port, 1   several links of one node transmit in the same step,
  //                 so one node can admit several deferred injections
  //   3-flit        a single port stays busy for three steps, so a node
  //                 with deferred injections goes steps without draining
  ExplicitScg Net(SuperCayleyGraph::star(5));
  struct Case {
    std::string Name;
    CommModel Model;
    WorkloadKind Kind;
    unsigned Flits;
    uint64_t Limit;
  };
  for (const Case &C :
       {Case{"transpose/single-port", CommModel::SinglePort,
             WorkloadKind::Transpose, 1, 2},
        Case{"transpose/all-port", CommModel::AllPort,
             WorkloadKind::Transpose, 1, 2},
        Case{"limit-1/all-port", CommModel::AllPort,
             WorkloadKind::UniformRandom, 1, 1},
        Case{"3-flit/single-port", CommModel::SinglePort,
             WorkloadKind::UniformRandom, 3, 2}}) {
    WorkloadSpec Spec = uniformAt(0.8, 70);
    Spec.Kind = C.Kind;
    Spec.FlitCount = C.Flits;
    TrafficLoadOptions Options;
    Options.ClosedLoopMaxQueue = C.Limit;
    TrafficLoadResult R = checkedBothWays("closed-corner/" + C.Name, Net,
                                          C.Model, Spec, 200, Options);
    EXPECT_GT(R.Sim.DeferredInjections, 0u) << C.Name;
    EXPECT_LE(R.Sim.Delivered, R.Offered) << C.Name;
  }
}
