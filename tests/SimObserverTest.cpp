//===- tests/SimObserverTest.cpp - Observability + invariant layer -------===//
//
// The simulator observability layer: MetricsRegistry semantics (counters,
// gauges, sampling, summaries, JSON), observer event streams, byte-equal
// results with and without observers attached, the on-inject Delivered
// accounting for zero-hop packets, and the ModelInvariantChecker run clean
// across all three communication models on every network family at k = 4.
// Every simulator run also matches its frozen golden (tests/SimGolden.h).
//
//===----------------------------------------------------------------------===//

#include "SimGolden.h"

#include "support/Format.h"

#include "Oracles.h"

#include <gtest/gtest.h>

using namespace scg;
using oracle::commModelName;

namespace {

/// Deterministic mixed workload: random valid routes, every fourth packet
/// a multi-flit message, plus a few zero-hop packets.
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

bool sameResult(const SimulationResult &A, const SimulationResult &B) {
  return A.Completed == B.Completed && A.Steps == B.Steps &&
         A.Delivered == B.Delivered && A.Transmissions == B.Transmissions &&
         A.BusyLinkSteps == B.BusyLinkSteps &&
         A.MaxQueueLength == B.MaxQueueLength &&
         A.LinkUtilization == B.LinkUtilization;
}

/// Counts hook firings and re-derives result fields from the event stream.
struct RecordingObserver final : SimObserver {
  unsigned Begins = 0, Ends = 0;
  uint64_t Steps = 0, Started = 0, Arrivals = 0, Deliveries = 0;
  uint64_t ActiveLinkSteps = 0;
  void onRunBegin(const NetworkSimulator &) override { ++Begins; }
  void onStep(const NetworkSimulator &, const StepEvents &E) override {
    ++Steps;
    for (const LinkActivity &A : E.Active)
      Started += A.Started;
    ActiveLinkSteps += E.Active.size();
    Arrivals += E.Arrivals.size();
    Deliveries += E.Deliveries.size();
  }
  void onRunEnd(const NetworkSimulator &, const SimulationResult &) override {
    ++Ends;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// MetricsRegistry
//===----------------------------------------------------------------------===//

TEST(Metrics, CountersAndGaugesSampleIntoSeries) {
  MetricsRegistry Reg;
  Metric &Hops = Reg.counter("hops");
  Metric &Depth = Reg.gauge("depth");
  Hops.add(3);
  Depth.set(2.5);
  Reg.sample(0);
  Hops.add();
  Depth.set(1.0);
  Reg.sample(1);

  EXPECT_TRUE(Hops.isCounter());
  EXPECT_FALSE(Depth.isCounter());
  EXPECT_EQ(Hops.value(), 4.0);
  ASSERT_EQ(Hops.series().size(), 2u);
  EXPECT_EQ(Hops.series()[0], (std::pair<uint64_t, double>{0, 3.0}));
  EXPECT_EQ(Hops.series()[1], (std::pair<uint64_t, double>{1, 4.0}));

  MetricSummary S = MetricsRegistry::summarize(Depth);
  EXPECT_EQ(S.Points, 2u);
  EXPECT_DOUBLE_EQ(S.Min, 1.0);
  EXPECT_DOUBLE_EQ(S.Max, 2.5);
  EXPECT_DOUBLE_EQ(S.Mean, 1.75);
  EXPECT_DOUBLE_EQ(S.Last, 1.0);

  EXPECT_EQ(Reg.names(), (std::vector<std::string>{"depth", "hops"}));
  EXPECT_NE(Reg.find("hops"), nullptr);
  EXPECT_EQ(Reg.find("nope"), nullptr);
}

TEST(Metrics, SameNameReturnsSameMetric) {
  MetricsRegistry Reg;
  Metric &A = Reg.counter("x");
  A.add(7);
  EXPECT_EQ(&Reg.counter("x"), &A);
  EXPECT_EQ(Reg.counter("x").value(), 7.0);
}

TEST(Metrics, JsonIsDeterministicAndDownsampled) {
  MetricsRegistry Reg;
  Metric &C = Reg.counter("c");
  for (uint64_t S = 0; S != 100; ++S) {
    C.add();
    Reg.sample(S);
  }
  std::string Json = Reg.toJson(/*MaxSeriesPoints=*/10);
  EXPECT_NE(Json.find("\"c\": {\"kind\": \"counter\""), std::string::npos);
  EXPECT_NE(Json.find("\"points\": 100"), std::string::npos);
  // The final point survives downsampling.
  EXPECT_NE(Json.find("[99, 100]"), std::string::npos);
  // Deterministic: a second render is identical.
  EXPECT_EQ(Json, Reg.toJson(10));
}

TEST(Metrics, HistogramCountsAndRenders) {
  Histogram H;
  EXPECT_EQ(H.render(), "(empty)\n");
  H.add(0);
  H.add(2);
  H.add(2);
  EXPECT_EQ(H.total(), 3u);
  EXPECT_EQ(H.maxValue(), 2u);
  EXPECT_EQ(H.count(2), 2u);
  EXPECT_EQ(H.count(5), 0u);
  std::string R = H.render(10);
  EXPECT_NE(R.find("0 | "), std::string::npos);
  EXPECT_NE(R.find("2 | "), std::string::npos);
  EXPECT_EQ(R.find("1 | "), std::string::npos); // empty bins are skipped.
}

//===----------------------------------------------------------------------===//
// Observer wiring
//===----------------------------------------------------------------------===//

TEST(SimObserver, EventStreamMatchesResult) {
  ExplicitScg Net(SuperCayleyGraph::star(5));
  NetworkSimulator Sim(Net, CommModel::AllPort);
  injectMixed(Sim, Net, 200, 42, /*ZeroHop=*/3);
  RecordingObserver Rec;
  GoldenStream Stream;
  Sim.addObserver(&Rec);
  Sim.addObserver(&Stream);
  SimulationResult R = Sim.run(100000);
  ASSERT_TRUE(R.Completed);
  expectGolden("observer/stream", golden::render(R, Stream));
  EXPECT_EQ(Rec.Begins, 1u);
  EXPECT_EQ(Rec.Ends, 1u);
  EXPECT_EQ(Rec.Steps, R.Steps);
  EXPECT_EQ(Rec.Started, R.Transmissions);
  EXPECT_EQ(Rec.Arrivals, R.Transmissions);
  EXPECT_EQ(Rec.ActiveLinkSteps, R.BusyLinkSteps);
  // Zero-hop packets are delivered on inject, not through the step loop.
  EXPECT_EQ(Rec.Deliveries + 3, R.Delivered);
}

TEST(SimObserver, ResultsIdenticalWithAndWithoutObservers) {
  ExplicitScg Net(SuperCayleyGraph::star(5));
  for (CommModel Model : {CommModel::AllPort, CommModel::SinglePort,
                          CommModel::SingleDimension}) {
    NetworkSimulator Plain(Net, Model);
    injectMixed(Plain, Net, 150, 7, /*ZeroHop=*/2);
    SimulationResult Bare = Plain.run(100000);

    NetworkSimulator Observed(Net, Model);
    injectMixed(Observed, Net, 150, 7, /*ZeroHop=*/2);
    MetricsRegistry Reg;
    MetricsObserver Metrics(Reg);
    ModelInvariantChecker Checker;
    GoldenStream Stream;
    Observed.addObserver(&Metrics);
    Observed.addObserver(&Checker);
    Observed.addObserver(&Stream);
    SimulationResult Instrumented = Observed.run(100000);

    ASSERT_TRUE(Bare.Completed) << commModelName(Model);
    EXPECT_TRUE(sameResult(Bare, Instrumented)) << commModelName(Model);
    expectGolden("observer/identical/" + commModelName(Model),
                 golden::render(Bare, Stream));
    EXPECT_TRUE(Checker.clean()) << commModelName(Model) << "\n"
                                 << Checker.report();
    // The metrics recomputed the same totals from the event stream.
    EXPECT_EQ(Reg.find("sim.transmissions")->value(),
              double(Bare.Transmissions))
        << commModelName(Model);
    EXPECT_EQ(Reg.find("sim.busy_link_steps")->value(),
              double(Bare.BusyLinkSteps))
        << commModelName(Model);
    EXPECT_EQ(Reg.find("sim.deliveries")->series().size(), Bare.Steps)
        << commModelName(Model);
  }
}

TEST(SimObserver, ZeroHopPacketsCountAsDelivered) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  NetworkSimulator Sim(Net, CommModel::AllPort);
  Sim.injectPacket(0, {});
  Sim.injectPacket(1, {});
  Sim.injectPacket(0, {0});
  SimulationResult R = Sim.run(100);
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.Delivered, 3u); // two zero-hop + one routed.
  EXPECT_EQ(R.Steps, 1u);

  // All-zero-hop traffic: delivered without a single step.
  NetworkSimulator Idle(Net, CommModel::SinglePort);
  Idle.injectPacket(2, {});
  SimulationResult R2 = Idle.run(100);
  EXPECT_TRUE(R2.Completed);
  EXPECT_EQ(R2.Delivered, 1u);
  EXPECT_EQ(R2.Steps, 0u);
}

//===----------------------------------------------------------------------===//
// ModelInvariantChecker
//===----------------------------------------------------------------------===//

TEST(ModelInvariantChecker, CleanOnEveryFamilyAndModelAtK4) {
  for (const SuperCayleyGraph &Scg : familiesAtK4()) {
    ExplicitScg Net(Scg);
    for (CommModel Model : {CommModel::AllPort, CommModel::SinglePort,
                            CommModel::SingleDimension}) {
      NetworkSimulator Sim(Net, Model);
      injectMixed(Sim, Net, 120, 0xBEEF);
      ModelInvariantChecker Checker;
      GoldenStream Stream;
      Sim.addObserver(&Checker);
      Sim.addObserver(&Stream);
      SimulationResult R = Sim.run(1000000);
      ASSERT_TRUE(R.Completed) << Scg.name() << " " << commModelName(Model);
      expectGolden("checker/" + Scg.name() + "/" + commModelName(Model),
                   golden::render(R, Stream));
      EXPECT_TRUE(Checker.clean())
          << Scg.name() << " " << commModelName(Model) << "\n"
          << Checker.report();
    }
  }
}

TEST(ModelInvariantChecker, FlagsViolationsInForgedEvents) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  NetworkSimulator Sim(Net, CommModel::SinglePort);
  ModelInvariantChecker Checker;
  Checker.onRunBegin(Sim);

  // Forge a step where node 0 is active on two distinct links at once:
  // exactly the single-port node rule (one of them a continuing
  // multi-flit occupancy, which must count as active).
  StepEvents Events;
  Events.Step = 0;
  Events.Model = CommModel::SinglePort;
  Events.Active.push_back({0, 0, 0, 3, true});
  Events.Active.push_back({0, 1, 1, 3, false});
  Checker.onStep(Sim, Events);
  ASSERT_FALSE(Checker.clean());
  EXPECT_EQ(Checker.violations().size(), 1u);
  EXPECT_NE(Checker.violations()[0].What.find("single-port"),
            std::string::npos);
  EXPECT_NE(Checker.report().find("step 0"), std::string::npos);

  // A doubly-occupied directed link is flagged under any model.
  ModelInvariantChecker LinkChecker;
  NetworkSimulator AllPort(Net, CommModel::AllPort);
  LinkChecker.onRunBegin(AllPort);
  StepEvents Dup;
  Dup.Step = 3;
  Dup.Model = CommModel::AllPort;
  Dup.Active.push_back({2, 1, 0, 1, true});
  Dup.Active.push_back({2, 1, 1, 1, true});
  LinkChecker.onStep(AllPort, Dup);
  ASSERT_EQ(LinkChecker.violations().size(), 1u);
  EXPECT_NE(LinkChecker.violations()[0].What.find("carries 2 messages"),
            std::string::npos);

  // A transmission starting off-schedule is flagged under single-dimension.
  ModelInvariantChecker SdChecker;
  NetworkSimulator Sd(Net, CommModel::SingleDimension);
  SdChecker.onRunBegin(Sd);
  StepEvents Off;
  Off.Step = 1;
  Off.Model = CommModel::SingleDimension;
  Off.ScheduledLink = 2;
  Off.HasScheduledLink = true;
  Off.Active.push_back({0, 1, 0, 1, true});
  SdChecker.onStep(Sd, Off);
  ASSERT_EQ(SdChecker.violations().size(), 1u);
  EXPECT_NE(SdChecker.violations()[0].What.find("schedule"),
            std::string::npos);

  // A *continuing* multi-flit occupancy off-dimension is legal (its
  // transmission started when its generator was scheduled).
  StepEvents Cont;
  Cont.Step = 2;
  Cont.Model = CommModel::SingleDimension;
  Cont.ScheduledLink = 0;
  Cont.HasScheduledLink = true;
  Cont.Active.push_back({0, 1, 0, 3, false});
  SdChecker.onStep(Sd, Cont);
  EXPECT_EQ(SdChecker.violations().size(), 1u); // unchanged.
}

TEST(ModelInvariantChecker, CleanOnMultiFlitSinglePortTraffic) {
  // The exact workload class the pre-fix simulator violated: multi-flit
  // store-and-forward messages under single-port.
  for (const SuperCayleyGraph &Scg :
       {SuperCayleyGraph::star(4), SuperCayleyGraph::rotator(4)}) {
    ExplicitScg Net(Scg);
    NetworkSimulator Sim(Net, CommModel::SinglePort);
    SplitMix64 Rng(99);
    for (unsigned P = 0; P != 60; ++P) {
      NodeId Src = Rng.nextBelow(Net.numNodes());
      std::vector<GenIndex> Route;
      for (unsigned H = 0, L = 1 + Rng.nextBelow(4); H != L; ++H)
        Route.push_back(Rng.nextBelow(Net.degree()));
      Sim.injectPacket(Src, Route, 2 + P % 4);
    }
    ModelInvariantChecker Checker;
    GoldenStream Stream;
    Sim.addObserver(&Checker);
    Sim.addObserver(&Stream);
    SimulationResult R = Sim.run(1000000);
    ASSERT_TRUE(R.Completed) << Scg.name();
    expectGolden("checker/multi-flit/" + Scg.name(),
                 golden::render(R, Stream));
    EXPECT_TRUE(Checker.clean()) << Scg.name() << "\n" << Checker.report();
  }
}
