//===- comm/Workload.cpp - Synthetic traffic workloads --------------------===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "comm/Workload.h"

#include "query/QueryEngine.h"
#include "support/Format.h"
#include "support/Metrics.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <numeric>

using namespace scg;

std::string scg::workloadKindName(WorkloadKind Kind) {
  switch (Kind) {
  case WorkloadKind::UniformRandom:
    return "uniform";
  case WorkloadKind::Hotspot:
    return "hotspot";
  case WorkloadKind::Transpose:
    return "transpose";
  case WorkloadKind::BitReversal:
    return "bit-reversal";
  case WorkloadKind::BurstyUniform:
    return "bursty";
  }
  assert(false && "unknown workload kind");
  return "?";
}

NodeId WorkloadGenerator::transposeDestination(const ExplicitScg &Net,
                                               NodeId U) {
  return Net.rankOf(Net.label(U).inverse());
}

NodeId WorkloadGenerator::bitReversalDestination(NodeId U, NodeId Count) {
  assert(Count != 0 && U < Count && "node out of range");
  unsigned Bits = 0;
  while ((NodeId(1) << Bits) < Count)
    ++Bits;
  NodeId Rev = 0;
  for (unsigned B = 0; B != Bits; ++B)
    if (U & (NodeId(1) << B))
      Rev |= NodeId(1) << (Bits - 1 - B);
  return Rev % Count;
}

WorkloadGenerator::WorkloadGenerator(const ExplicitScg &Net,
                                     const WorkloadSpec &Spec)
    : Net(Net), Spec(Spec) {
  assert(Net.numNodes() >= 2 && "workloads need at least two nodes");
  assert(Spec.InjectionRate >= 0.0 && "negative injection rate");
  if (Spec.Kind == WorkloadKind::Transpose) {
    for (NodeId U = 0; U != Net.numNodes(); ++U)
      FixedDest.push_back(transposeDestination(Net, U));
  } else if (Spec.Kind == WorkloadKind::BitReversal) {
    for (NodeId U = 0; U != Net.numNodes(); ++U)
      FixedDest.push_back(bitReversalDestination(U, Net.numNodes()));
  }
}

namespace {

/// Uniform [0, 1) from the top 53 bits of one SplitMix64 draw; bit-exact
/// on every platform, unlike std::uniform_real_distribution.
double nextU01(SplitMix64 &R) {
  return double(R.next() >> 11) * 0x1.0p-53;
}

/// Uniform destination over the nodes other than \p Src.
NodeId uniformOther(SplitMix64 &R, NodeId Src, NodeId Count) {
  NodeId D = NodeId(R.nextBelow(Count - 1));
  return D >= Src ? D + 1 : D;
}

} // namespace

std::vector<TrafficEvent> WorkloadGenerator::generate(uint64_t Steps) const {
  const NodeId Count = Net.numNodes();
  // One stream per source node, all advanced in the same step-major order,
  // so the trace never depends on how it is consumed. Per-node seeds are
  // SplitMix64 *outputs*, not raw states: states spaced by the generator's
  // own golden-ratio increment would make every node replay its neighbor's
  // sequence one draw behind, synchronizing injections into waves.
  std::vector<SplitMix64> Streams;
  Streams.reserve(Count);
  SplitMix64 SeedStream(Spec.Seed);
  for (NodeId U = 0; U != Count; ++U)
    Streams.emplace_back(SeedStream.next());

  const bool Bursty = Spec.Kind == WorkloadKind::BurstyUniform;
  // Bursty arrivals: a two-state Markov source per node. Mean on-period
  // MeanBurstLength, mean off-period chosen so the long-run on-fraction is
  // BurstDutyCycle; while on, inject at InjectionRate / BurstDutyCycle so
  // the long-run offered rate still equals InjectionRate.
  double Duty = Spec.BurstDutyCycle;
  double OnExit = 0.0, OffExit = 0.0, OnRate = 0.0;
  std::vector<uint8_t> On;
  if (Bursty) {
    assert(Duty > 0.0 && Duty <= 1.0 && "duty cycle out of range");
    assert(Spec.MeanBurstLength >= 1.0 && "mean burst below one step");
    OnExit = 1.0 / Spec.MeanBurstLength;
    double MeanOff = Spec.MeanBurstLength * (1.0 - Duty) / Duty;
    OffExit = MeanOff > 0.0 ? 1.0 / MeanOff : 1.0;
    OnRate = std::min(1.0, Spec.InjectionRate / Duty);
    On.resize(Count);
    for (NodeId U = 0; U != Count; ++U)
      On[U] = nextU01(Streams[U]) < Duty ? 1 : 0;
  }

  std::vector<TrafficEvent> Trace;
  for (uint64_t Step = 0; Step != Steps; ++Step) {
    for (NodeId U = 0; U != Count; ++U) {
      SplitMix64 &R = Streams[U];
      bool Inject;
      if (Bursty) {
        Inject = On[U] && nextU01(R) < OnRate;
        // State transition drawn every step, after the arrival draw.
        if (On[U])
          On[U] = nextU01(R) < OnExit ? 0 : 1;
        else
          On[U] = nextU01(R) < OffExit ? 1 : 0;
        if (!Inject)
          continue;
      } else {
        if (nextU01(R) >= Spec.InjectionRate)
          continue;
      }
      NodeId Dst = 0;
      switch (Spec.Kind) {
      case WorkloadKind::UniformRandom:
      case WorkloadKind::BurstyUniform:
        Dst = uniformOther(R, U, Count);
        break;
      case WorkloadKind::Hotspot:
        if (nextU01(R) < Spec.HotspotFraction && Spec.HotspotNode != U)
          Dst = Spec.HotspotNode;
        else
          Dst = uniformOther(R, U, Count);
        break;
      case WorkloadKind::Transpose:
      case WorkloadKind::BitReversal:
        Dst = FixedDest[U];
        break;
      }
      Trace.push_back({Step, U, Dst});
    }
  }
  return Trace;
}

TrafficLoadResult scg::simulateTrafficLoad(const ExplicitScg &Net,
                                           CommModel Model,
                                           const WorkloadSpec &Spec,
                                           uint64_t Steps,
                                           const TrafficLoadOptions &Options) {
  const NodeId Count = Net.numNodes();
  WorkloadGenerator Gen(Net, Spec);
  std::vector<TrafficEvent> Trace = Gen.generate(Steps);

  NetworkSimulator Sim(Net, Model);
  if (Options.ClosedLoopMaxQueue)
    Sim.setClosedLoop(Options.ClosedLoopMaxQueue);

  // Route setup. Routes are the lifted optimal star routes (as in
  // permutation routing), and by Cayley symmetry a route depends only on
  // the relative label Rel = label(src)^-1 o label(dst) -- left
  // translation is an automorphism -- so the N^2 possible pairs collapse
  // to at most numNodes distinct labels. The setup dedupes on that label
  // (node ids ARE Lehmer ranks, so a flat slot vector indexes the dedup)
  // and routes each distinct label once.
  const SuperCayleyGraph &Host = Net.network();
  std::vector<uint64_t> InjectStep;
  std::vector<unsigned> Hops;
  InjectStep.reserve(Trace.size());
  Hops.reserve(Trace.size());

  TrafficLoadResult Result;
  auto SetupBegin = std::chrono::steady_clock::now();

  // Per-node labels and inverses, computed once instead of per event.
  std::vector<Permutation> Labels;
  Labels.reserve(Count);
  for (NodeId U = 0; U != Count; ++U)
    Labels.push_back(Net.label(U));
  std::vector<Permutation> InvLabels;
  InvLabels.reserve(Count);
  for (NodeId U = 0; U != Count; ++U)
    InvLabels.push_back(Labels[U].inverse());

  // Dedup pass: map each event to the slot of its relative label. Slot 0
  // is reserved for the identity label (src == dst, zero-hop).
  constexpr uint32_t NoSlot = ~uint32_t(0);
  std::vector<uint32_t> LabelSlot(Count, NoSlot);
  std::vector<Permutation> Rels;
  std::vector<uint32_t> EventSlot;
  EventSlot.reserve(Trace.size());
  for (const TrafficEvent &E : Trace) {
    if (E.Src == E.Dst) {
      EventSlot.push_back(NoSlot);
      continue;
    }
    Permutation Rel = InvLabels[E.Src].compose(Labels[E.Dst]);
    uint32_t &Slot = LabelSlot[Net.rankOf(Rel)];
    if (Slot == NoSlot) {
      Slot = uint32_t(Rels.size());
      Rels.push_back(std::move(Rel));
    }
    EventSlot.push_back(Slot);
  }
  Result.DistinctLabels = Rels.size();

  // One QueryEngine batch over the global ThreadPool computes every
  // distinct route into a flat arena (chunk boundaries are a function of
  // the batch length only, so the arena is byte-identical at every thread
  // count). The engine's cache is disabled: the driver already deduped, so
  // caching could only add shard-lock traffic.
  QueryEngineOptions QOpts;
  QOpts.CacheCapacity = 0;
  QueryEngine Engine(Host, QOpts);
  RouteArena Arena = Engine.routeBatchRelative(Rels);
  // Register each distinct route once; every injection shares its label's
  // pool segment instead of copying the hop vector.
  std::vector<uint32_t> Handles;
  Handles.reserve(Rels.size());
  for (size_t I = 0; I != Rels.size(); ++I)
    Handles.push_back(Sim.addSharedRoute(Arena.route(I)));
  const std::vector<GenIndex> ZeroHop;
  for (size_t I = 0; I != Trace.size(); ++I) {
    const TrafficEvent &E = Trace[I];
    uint32_t Slot = EventSlot[I];
    uint32_t Id = Slot == NoSlot
                      ? Sim.scheduleInjection(E.Step, E.Src, ZeroHop,
                                              Spec.FlitCount)
                      : Sim.scheduleInjectionShared(E.Step, E.Src,
                                                    Handles[Slot],
                                                    Spec.FlitCount);
    assert(Id == InjectStep.size() && "packet ids not contiguous");
    (void)Id;
    InjectStep.push_back(E.Step);
    Hops.push_back(Slot == NoSlot ? 0 : Arena.length(Slot));
  }
  Result.SetupSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    SetupBegin)
          .count();
  Result.DedupFactor = Result.DistinctLabels
                           ? double(Trace.size()) / double(Result.DistinctLabels)
                           : 0.0;

  // The simulator records delivery steps and occupancy itself, so with no
  // caller observer the run takes the uninstrumented loop.
  for (SimObserver *O : Options.Observers)
    Sim.addObserver(O);

  Result.Sim = Sim.run(Steps);
  Result.Offered = Trace.size();
  double NodeSteps = double(Count) * double(Steps ? Steps : 1);
  Result.OfferedRate = double(Result.Offered) / NodeSteps;
  Result.DeliveredRate = double(Result.Sim.Delivered) / NodeSteps;

  std::vector<uint64_t> Latencies;
  uint64_t HopSum = 0;
  uint64_t LatencySum = 0;
  for (size_t I = 0; I != Trace.size(); ++I) {
    uint64_t DeliverStep = Sim.deliveryStep(uint32_t(I));
    if (DeliverStep == NetworkSimulator::NotDelivered)
      continue; // still in the network at the horizon.
    uint64_t Latency = Hops[I] ? DeliverStep - InjectStep[I] + 1 : 0;
    Latencies.push_back(Latency);
    LatencySum += Latency;
    HopSum += Hops[I];
  }
  if (!Latencies.empty()) {
    Result.MeanHops = double(HopSum) / double(Latencies.size());
    Result.MeanLatency = double(LatencySum) / double(Latencies.size());
    std::sort(Latencies.begin(), Latencies.end());
    Result.P50Latency = Latencies[(Latencies.size() - 1) * 50 / 100];
    Result.P99Latency = Latencies[(Latencies.size() - 1) * 99 / 100];
  }
  if (Result.Sim.ExecutedSteps)
    Result.MeanQueued = double(Result.Sim.QueuedPacketSteps) /
                        double(Result.Sim.ExecutedSteps);

  if (MetricsRegistry *Reg = Options.Registry) {
    Reg->counter("traffic.offered").add(Result.Offered);
    Reg->counter("traffic.delivered").add(Result.Sim.Delivered);
    Reg->gauge("traffic.offered_rate").set(Result.OfferedRate);
    Reg->gauge("traffic.delivered_rate").set(Result.DeliveredRate);
    Reg->gauge("traffic.mean_latency").set(Result.MeanLatency);
    Reg->gauge("traffic.p50_latency").set(double(Result.P50Latency));
    Reg->gauge("traffic.p99_latency").set(double(Result.P99Latency));
    Reg->gauge("traffic.mean_queued").set(Result.MeanQueued);
    Reg->gauge("traffic.max_queue_length")
        .set(double(Result.Sim.MaxQueueLength));
    Reg->counter("traffic.setup.events").add(Result.Offered);
    Reg->counter("traffic.setup.distinct_labels").add(Result.DistinctLabels);
    Reg->counter("traffic.setup.route_hops")
        .add(std::accumulate(Hops.begin(), Hops.end(), uint64_t(0)));
    Reg->gauge("traffic.setup.dedup_factor").set(Result.DedupFactor);
    Reg->gauge("traffic.closedloop.max_queue")
        .set(double(Options.ClosedLoopMaxQueue));
    Reg->counter("traffic.closedloop.deferred_injections")
        .add(Result.Sim.DeferredInjections);
    Reg->counter("traffic.closedloop.deferred_steps")
        .add(Result.Sim.DeferredSteps);
  }
  return Result;
}

std::vector<std::string> scg::trafficMetricNames() {
  return {"traffic.offered",
          "traffic.delivered",
          "traffic.offered_rate",
          "traffic.delivered_rate",
          "traffic.mean_latency",
          "traffic.p50_latency",
          "traffic.p99_latency",
          "traffic.mean_queued",
          "traffic.max_queue_length",
          "traffic.setup.events",
          "traffic.setup.distinct_labels",
          "traffic.setup.route_hops",
          "traffic.setup.dedup_factor",
          "traffic.closedloop.max_queue",
          "traffic.closedloop.deferred_injections",
          "traffic.closedloop.deferred_steps"};
}
