//===- perfbench/src/Traffic.cpp - traffic_saturated, traffic_sparse ------===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Offered load -> saturation-curve point on star(8), single-port, uniform
/// random destinations: one open-loop simulateTrafficLoad call is the
/// timed operation, and its closed-loop twin (same spec, per-node queue
/// limit 4) follows it in every round (call_s is the open call, round_s
/// the closed twin). The traced run splits the call into trace generation
/// (replayed through WorkloadGenerator), the call's own route setup
/// (TrafficLoadResult::SetupSeconds) and the labelled residual; it splits
/// route setup in turn into relative-label normalization and the deduped
/// route batch (both replayed through public entry points) and a labelled
/// setup residual.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "comm/SimObserver.h"
#include "comm/Workload.h"
#include "query/QueryEngine.h"
#include "support/Metrics.h"

#include <algorithm>
#include <cstdio>
#include <memory>

using namespace perfbench;
using namespace scg;

namespace {

struct TrafficShape {
  unsigned K;         ///< star(K).
  double Rate;        ///< offered packets/node/step.
  uint64_t Steps;     ///< horizon.
  unsigned TracedReps; ///< traced replays of the whole pipeline.
};

TrafficShape shapeFor(const Options &Opts, bool Saturated) {
  // star(7) keeps the self-test's route setup in milliseconds, well above
  // the pool-dispatch jitter its layer split must stay clear of.
  if (Opts.Tiny)
    return Saturated ? TrafficShape{7, 0.3, 20, 2}
                     : TrafficShape{7, 0.01, 100, 2};
  return Saturated ? TrafficShape{8, 0.3, 50, 2}
                   : TrafficShape{8, 0.01, 400, 3};
}

constexpr CommModel Model = CommModel::SinglePort;
constexpr uint64_t ClosedLoopQueue = 4;

/// Every deterministic field of a traffic result (SetupSeconds is wall
/// clock and excluded).
Fingerprint fingerprint(const TrafficLoadResult &R) {
  return {{"completed", fmt(uint64_t(R.Sim.Completed))},
          {"steps", fmt(R.Sim.Steps)},
          {"delivered", fmt(R.Sim.Delivered)},
          {"transmissions", fmt(R.Sim.Transmissions)},
          {"busy_link_steps", fmt(R.Sim.BusyLinkSteps)},
          {"max_queue", fmt(R.Sim.MaxQueueLength)},
          {"link_utilization", fmt(R.Sim.LinkUtilization)},
          {"deferred_injections", fmt(R.Sim.DeferredInjections)},
          {"deferred_steps", fmt(R.Sim.DeferredSteps)},
          {"offered", fmt(R.Offered)},
          {"offered_rate", fmt(R.OfferedRate)},
          {"delivered_rate", fmt(R.DeliveredRate)},
          {"mean_hops", fmt(R.MeanHops)},
          {"mean_latency", fmt(R.MeanLatency)},
          {"p50_latency", fmt(R.P50Latency)},
          {"p99_latency", fmt(R.P99Latency)},
          {"mean_queued", fmt(R.MeanQueued)},
          {"distinct_labels", fmt(R.DistinctLabels)},
          {"dedup_factor", fmt(R.DedupFactor)}};
}

/// Checks every result of one configuration: invariants, equality with
/// the first result (a result is a pure function of its inputs, with or
/// without observers), and the seed's goldens.
class ResultCheck {
public:
  ResultCheck(Context &C, const ExplicitScg &Net, std::string Key)
      : C(C), Net(Net), Key(std::move(Key)) {}

  void operator()(const TrafficLoadResult &R) {
    Checks::Op Op(C.Check);
    Op.expect(R.Offered > 0, Key + ": nothing offered");
    Op.expect(R.Sim.Delivered <= R.Offered, Key + ": delivered > offered");
    Op.expect(R.DistinctLabels > 0 && R.DistinctLabels <= Net.numNodes(),
              Key + ": distinct labels out of range");
    Op.expect(R.P50Latency <= R.P99Latency, Key + ": p50 > p99");
    Fingerprint F = fingerprint(R);
    if (First.empty()) {
      First = F;
      Op.goldens(Key, F);
    } else {
      Op.same(Key, First, F);
    }
  }

private:
  Context &C;
  const ExplicitScg &Net;
  std::string Key;
  Fingerprint First;
};

/// Busy link-steps per generator dimension, from the simulator's step
/// stream: the Section 6 "balanced traffic on all links" claim under load.
class LinkBalance final : public SimObserver {
public:
  void onRunBegin(const NetworkSimulator &Sim) override {
    Busy.assign(Sim.net().degree(), 0);
  }
  void onStep(const NetworkSimulator &, const StepEvents &Events) override {
    for (const LinkActivity &A : Events.Active)
      ++Busy[A.Link];
  }
  /// Busiest dimension over the mean dimension (1 = perfectly balanced).
  double maxOverMean() const {
    uint64_t Total = 0, Max = 0;
    for (uint64_t B : Busy) {
      Total += B;
      Max = std::max(Max, B);
    }
    return Total ? double(Max) * double(Busy.size()) / double(Total) : 0.0;
  }

private:
  std::vector<uint64_t> Busy;
};

/// simulateTrafficLoad's normalization pass, replayed from outside: each
/// event's relative label label(src)^-1 o label(dst) (per-node labels and
/// inverses hoisted, as simulateTrafficLoad does), ranked and deduped in
/// first-seen order.
std::vector<Permutation> distinctLabels(const ExplicitScg &Net,
                                        const std::vector<TrafficEvent> &T) {
  const NodeId Count = Net.numNodes();
  std::vector<Permutation> Labels, Inverses;
  Labels.reserve(Count);
  Inverses.reserve(Count);
  for (NodeId U = 0; U != Count; ++U) {
    Labels.push_back(Net.label(U));
    Inverses.push_back(Labels.back().inverse());
  }
  std::vector<uint8_t> Seen(Count, 0);
  std::vector<Permutation> Rels;
  for (const TrafficEvent &E : T) {
    if (E.Src == E.Dst)
      continue;
    Permutation Rel = Inverses[E.Src].compose(Labels[E.Dst]);
    uint8_t &S = Seen[Net.rankOf(Rel)];
    if (!S) {
      S = 1;
      Rels.push_back(std::move(Rel));
    }
  }
  return Rels;
}

/// Checks that route I of \p Arena, walked from the identity through the
/// public generator actions, ends at Rels[I].
void checkArena(Context &C, const SuperCayleyGraph &Host,
                const std::vector<Permutation> &Rels, const RouteArena &A) {
  Checks::Op Size(C.Check);
  if (!Size.expect(A.size() == Rels.size(), "route batch size"))
    return;
  for (size_t I = 0; I != Rels.size(); ++I) {
    Checks::Op Op(C.Check);
    Permutation Cur = Permutation::identity(Host.numSymbols());
    bool InRange = true;
    for (GenIndex G : A.route(I)) {
      if (!(InRange = G < Host.degree()))
        break;
      Host.neighborInto(Cur, G, Cur);
    }
    Op.expect(InRange && Cur == Rels[I],
              "route batch reply does not realize its relative label");
  }
}

std::unique_ptr<ExplicitScg> setUp(Context &C, unsigned K, Samples &Setup) {
  std::unique_ptr<ExplicitScg> Net;
  while (moreSetups(C.Opts, Setup)) {
    Net.reset();
    Tracer::Scope Span(C.Trace, "networks.build");
    double T0 = now();
    Net = std::make_unique<ExplicitScg>(SuperCayleyGraph::star(K));
    Setup.add(now() - T0);
  }
  checkExplicit(C, *Net, "networks.star");
  return Net;
}

TrafficLoadResult simulate(const ExplicitScg &Net, const WorkloadSpec &Spec,
                           uint64_t Steps, bool Closed,
                           SimObserver *Observer = nullptr) {
  TrafficLoadOptions O;
  if (Closed)
    O.ClosedLoopMaxQueue = ClosedLoopQueue;
  if (Observer)
    O.Observers.push_back(Observer);
  return simulateTrafficLoad(Net, Model, Spec, Steps, O);
}

void runUntraced(Context &C, const ExplicitScg &Net, const WorkloadSpec &Spec,
                 const TrafficShape &Shape) {
  ResultCheck Open(C, Net, "traffic.open"), Closed(C, Net, "traffic.closed");
  Samples OpenWall, ClosedWall, RouteSetup;
  timedRounds(C.Opts.Seconds, 3, [&](bool Timed) {
    double T0 = now();
    TrafficLoadResult R = simulate(Net, Spec, Shape.Steps, false);
    double T1 = now();
    TrafficLoadResult RC = simulate(Net, Spec, Shape.Steps, true);
    double T2 = now();
    if (Timed) {
      OpenWall.add(T1 - T0);
      ClosedWall.add(T2 - T1);
      RouteSetup.add(R.SetupSeconds);
    }
    Open(R);
    Closed(RC);
    Checks::Op Op(C.Check);
    Op.expect(RC.Offered == R.Offered, "closed-loop twin offered differs");
  });
  C.Out.set("call_s", OpenWall.median());
  C.Out.set("round_s", ClosedWall.median());
  Metrics::report("traffic.wall_s", OpenWall, "s");
  Metrics::report("traffic.closed_wall_s", ClosedWall, "s");
  Metrics::report("comm.route_setup_s", RouteSetup, "s");
}

void runTraced(Context &C, const ExplicitScg &Net, const WorkloadSpec &Spec,
               const TrafficShape &Shape) {
  ResultCheck Open(C, Net, "traffic.open"), Closed(C, Net, "traffic.closed");
  // Untraced baseline of the same call, after a warm-up call, for the
  // tracing overhead.
  double Untraced = 0;
  for (unsigned Rep = 0; Rep != 2; ++Rep) {
    double T0 = now();
    Open(simulate(Net, Spec, Shape.Steps, false));
    Untraced = now() - T0;
  }

  Samples TraceGen, Normalize, RouteBatch, Wall, RouteSetup;
  MetricsRegistry Cache;
  TrafficLoadResult R;
  uint64_t Events = 0;
  for (unsigned Rep = 0; Rep != Shape.TracedReps; ++Rep) {
    Tracer::Scope Pipeline(C.Trace, "traffic.pipeline");
    std::vector<TrafficEvent> Trace;
    {
      Tracer::Scope S(C.Trace, "comm.trace_gen");
      Trace = WorkloadGenerator(Net, Spec).generate(Shape.Steps);
      TraceGen.add(S.close());
    }
    std::vector<Permutation> Rels;
    {
      Tracer::Scope S(C.Trace, "perm.normalize");
      Rels = distinctLabels(Net, Trace);
      Normalize.add(S.close());
    }
    RouteArena Arena;
    {
      Tracer::Scope S(C.Trace, "query.route_batch");
      QueryEngine Engine(Net.network());
      Arena = Engine.routeBatchRelative(Rels);
      RouteBatch.add(S.close());
      Engine.publishMetrics(Cache);
    }
    {
      Tracer::Scope S(C.Trace, "traffic.call");
      R = simulate(Net, Spec, Shape.Steps, false);
      Wall.add(S.close());
    }
    Pipeline.close();
    RouteSetup.add(R.SetupSeconds);
    Open(R);
    checkArena(C, Net.network(), Rels, Arena);
    Checks::Op Op(C.Check);
    Op.expect(Trace.size() == R.Offered, "replayed trace size differs");
    Op.expect(Rels.size() == R.DistinctLabels,
              "replayed distinct-label count differs");
    Events = Trace.size();
  }

  // The closed-loop twin, for its wall time and admission counts.
  double T0 = now();
  TrafficLoadResult RC = simulate(Net, Spec, Shape.Steps, true);
  const double ClosedWall = now() - T0;
  Closed(RC);

  // Link balance on a call of its own: an observer switches the simulator
  // to its instrumented loop, which no timed figure above may include.
  LinkBalance Balance;
  Open(simulate(Net, Spec, Shape.Steps, false, &Balance));

  // The traced call's wall splits into trace generation (replayed), its
  // own route setup (SetupSeconds) and the residual: simulator
  // construction, simulation and reduction. Route setup splits into the
  // replayed normalization and route batch and the setup residual:
  // injection scheduling, plus the batched-vs-scalar route assertion in
  // builds with asserts on. Both identities hold exactly for the means.
  const double Simulate = Wall.mean() - TraceGen.mean() - RouteSetup.mean();
  const double SetupResidual =
      RouteSetup.mean() - Normalize.mean() - RouteBatch.mean();
  std::printf("traffic.wall_s %.6f s = comm.trace_gen_s %.6f + "
              "comm.route_setup_s %.6f + comm.simulate_s (residual: "
              "simulator construction, simulation, reduction) %.6f\n"
              "comm.route_setup_s %.6f s = perm.normalize_s %.6f + "
              "query.route_batch_s %.6f + comm.setup_residual_s (residual: "
              "scheduling, route assertion) %.6f\n",
              Wall.mean(), TraceGen.mean(), RouteSetup.mean(), Simulate,
              RouteSetup.mean(), Normalize.mean(), RouteBatch.mean(),
              SetupResidual);
  Metrics &M = C.Out;
  M.set("traffic.wall_s", Wall.mean());
  M.set("traffic.closed_wall_s", ClosedWall);
  M.set("trace.overhead_s", Wall.mean() - Untraced);
  M.set("comm.trace_gen_s", TraceGen.mean());
  M.set("perm.normalize_s", Normalize.mean());
  M.set("query.route_batch_s", RouteBatch.mean());
  M.set("comm.simulate_s", Simulate);
  M.set("comm.route_setup_s", RouteSetup.mean());
  M.set("comm.setup_residual_s", SetupResidual);
  M.set("perm.rel_label_ns", Normalize.mean() / double(Events) * 1e9);
  M.set("comm.ns_per_step", Simulate / double(R.Sim.Steps) * 1e9);
  M.set("comm.ns_per_transmission",
        Simulate / double(R.Sim.Transmissions) * 1e9);
  M.set("comm.events", double(R.Offered));
  M.set("comm.distinct_labels", double(R.DistinctLabels));
  M.set("comm.dedup_factor", R.DedupFactor);
  M.set("comm.transmissions", double(R.Sim.Transmissions));
  M.set("comm.sim_steps", double(R.Sim.Steps));
  M.set("comm.max_queue", double(R.Sim.MaxQueueLength));
  M.set("comm.deferred_injections", double(RC.Sim.DeferredInjections));
  M.set("comm.deferred_steps", double(RC.Sim.DeferredSteps));
  M.set("comm.delivered_rate", R.DeliveredRate);
  M.set("comm.p99_latency_steps", double(R.P99Latency));
  M.set("comm.link_balance", Balance.maxOverMean());
  M.set("query.mean_route_hops", R.MeanHops);
  auto Value = [&](const char *Name) {
    const Metric *Found = Cache.find(Name);
    return Found ? Found->value() : 0.0;
  };
  M.set("query.cache_hits", Value("query.cache.hits"));
  M.set("query.cache_misses", Value("query.cache.misses"));
  M.set("query.cache_evictions", Value("query.cache.evictions"));
  M.set("query.cache_hit_ratio", Value("query.cache.hit_rate"));

  Checks::Op Op(C.Check);
  Op.golden("traffic.link_balance", fmt(Balance.maxOverMean()));
}

} // namespace

void perfbench::runTraffic(Context &C, bool Saturated) {
  const TrafficShape Shape = shapeFor(C.Opts, Saturated);
  Samples Setup;
  std::unique_ptr<ExplicitScg> Net = setUp(C, Shape.K, Setup);
  C.Out.set("setup_s", Setup.median());
  C.Out.set("networks.build_s", Setup.median());
  Metrics::report("setup_s", Setup, "s");

  WorkloadSpec Spec;
  Spec.Kind = WorkloadKind::UniformRandom;
  Spec.InjectionRate = Shape.Rate;
  Spec.Seed = deriveSeed(C.Opts.Seed, 1);
  if (C.Opts.Trace)
    runTraced(C, *Net, Spec, Shape);
  else
    runUntraced(C, *Net, Spec, Shape);
}
