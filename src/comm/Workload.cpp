//===- comm/Workload.cpp - Synthetic traffic workloads --------------------===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "comm/Workload.h"

#include "query/QueryEngine.h"
#include "support/Format.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

using namespace scg;

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
  // Negated compares so that NaN fails them too.
  if (!(Spec.InjectionRate >= 0.0))
    throw std::invalid_argument("workload: injection rate is negative or NaN");
  if (Spec.Kind == WorkloadKind::Hotspot &&
      Spec.HotspotNode >= Net.numNodes())
    throw std::invalid_argument("workload: hotspot node " +
                                std::to_string(Spec.HotspotNode) +
                                " out of range");
  if (Spec.Kind == WorkloadKind::BurstyUniform) {
    if (!(Spec.BurstDutyCycle > 0.0 && Spec.BurstDutyCycle <= 1.0))
      throw std::invalid_argument("workload: burst duty cycle outside (0, 1]");
    if (!(Spec.MeanBurstLength >= 1.0))
      throw std::invalid_argument(
          "workload: mean burst length below one step or NaN");
  }
  if (Spec.Kind == WorkloadKind::Transpose) {
    for (NodeId U = 0; U != Net.numNodes(); ++U)
      FixedDest.push_back(transposeDestination(Net, U));
  } else if (Spec.Kind == WorkloadKind::BitReversal) {
    for (NodeId U = 0; U != Net.numNodes(); ++U)
      FixedDest.push_back(bitReversalDestination(U, Net.numNodes()));
  }
}

namespace {

/// A Bernoulli draw of probability P: true when u < P, for u uniform in
/// [0, 1) from the top 53 bits X of one SplitMix64 draw (u = X * 2^-53,
/// exact in a double, so bit-exact on every platform, unlike
/// std::uniform_real_distribution). As an integer compare: X * 2^-53 < P
/// exactly when X < ceil(P * 2^53), which needs no conversion per draw.
class Chance {
public:
  explicit Chance(double P)
      : Below(!(P > 0.0)  ? 0
              : P >= 1.0 ? uint64_t(1) << 53
                         : uint64_t(std::ceil(std::ldexp(P, 53)))) {}

  bool draw(SplitMix64 &R) const { return (R.next() >> 11) < Below; }

private:
  uint64_t Below; ///< 53-bit draws below this value succeed.
};

/// Uniform destination over the nodes other than \p Src.
NodeId uniformOther(SplitMix64 &R, NodeId Src, NodeId Count) {
  NodeId D = NodeId(R.nextBelow(Count - 1));
  return D >= Src ? D + 1 : D;
}

/// The body of both generation passes: replays the streams of one chunk of
/// source nodes, node by node, over every step. A chunk owns one run
/// counter per step (Runs[Step]). The count pass (Emit = false) counts the
/// chunk's events at each step there; the write pass (Emit = true) finds
/// there the offset of the step's run in the trace and appends the node's
/// event at it. Both make every draw, so each stream stays in step, but
/// the count pass reduces no draw to a destination and stores no event.
struct ChunkReplay {
  const WorkloadSpec &Spec;
  const std::vector<uint64_t> &Seeds;   ///< per-node stream seeds.
  const std::vector<NodeId> &FixedDest; ///< transpose/bit-reversal map.
  NodeId Count;
  uint64_t Steps;
  bool Bursty;
  Chance Inject, Hot, Duty, OnExit, OffExit, OnInject;

  template <bool Emit> NodeId destination(SplitMix64 &R, NodeId U) const {
    auto Uniform = [&]() -> NodeId {
      if constexpr (Emit)
        return uniformOther(R, U, Count);
      R.next(); // the draw, without its reduction to a node id.
      return 0;
    };
    switch (Spec.Kind) {
    case WorkloadKind::UniformRandom:
    case WorkloadKind::BurstyUniform:
      return Uniform();
    case WorkloadKind::Hotspot:
      if (Hot.draw(R) && Spec.HotspotNode != U)
        return Spec.HotspotNode;
      return Uniform();
    case WorkloadKind::Transpose:
    case WorkloadKind::BitReversal:
      return Emit ? FixedDest[U] : 0;
    }
    return 0;
  }

  template <bool Emit>
  void run(NodeId Begin, NodeId End, uint64_t *Runs,
           TrafficEvent *Trace) const {
    for (NodeId U = Begin; U != End; ++U) {
      SplitMix64 R(Seeds[U]);
      bool On = Bursty && Duty.draw(R);
      for (uint64_t Step = 0; Step != Steps; ++Step) {
        bool Injects;
        if (Bursty) {
          Injects = On && OnInject.draw(R);
          // State transition drawn every step, after the arrival draw.
          On = On ? !OnExit.draw(R) : OffExit.draw(R);
        } else {
          Injects = Inject.draw(R);
        }
        if (!Injects)
          continue;
        NodeId Dst = destination<Emit>(R, U);
        if constexpr (Emit)
          Trace[Runs[Step]++] = {Step, U, Dst};
        else
          ++Runs[Step];
      }
    }
  }
};

} // namespace

std::vector<TrafficEvent> WorkloadGenerator::generate(uint64_t Steps) const {
  const NodeId Count = Net.numNodes();
  // One stream per source node, each advanced step by step, so the trace
  // never depends on how it is consumed. Per-node seeds are SplitMix64
  // *outputs*, not raw states: states spaced by the generator's own
  // golden-ratio increment would make every node replay its neighbor's
  // sequence one draw behind, synchronizing injections into waves.
  std::vector<uint64_t> Seeds(Count);
  SplitMix64 SeedStream(Spec.Seed);
  for (uint64_t &Seed : Seeds)
    Seed = SeedStream.next();

  // Bursty arrivals: a two-state Markov source per node. Mean on-period
  // MeanBurstLength, mean off-period chosen so the long-run on-fraction is
  // BurstDutyCycle; while on, inject at InjectionRate / BurstDutyCycle so
  // the long-run offered rate still equals InjectionRate.
  const bool Bursty = Spec.Kind == WorkloadKind::BurstyUniform;
  const double Duty = Spec.BurstDutyCycle;
  double OnExit = 0.0, OffExit = 0.0, OnRate = 0.0;
  if (Bursty) {
    OnExit = 1.0 / Spec.MeanBurstLength;
    double MeanOff = Spec.MeanBurstLength * (1.0 - Duty) / Duty;
    OffExit = MeanOff > 0.0 ? 1.0 / MeanOff : 1.0;
    OnRate = std::min(1.0, Spec.InjectionRate / Duty);
  }

  // Two passes over node chunks on the pool. A stream belongs to one node,
  // so a chunk replays its nodes on its own. The count pass sizes every
  // (step, chunk) run; a prefix sum in (step, chunk) order turns the sizes
  // into offsets, which is (Step, Src) order because chunks are ascending
  // node ranges and each chunk visits its nodes in ascending order; the
  // write pass replays the same draws and writes each event at its final
  // index. Chunk boundaries depend on the node count only, so the trace is
  // the same at every thread count. Runs is chunk-major, so no two chunks
  // write to one cache line but at their boundary.
  const uint64_t ChunkSize = ThreadPool::defaultChunkSize(Count);
  const uint64_t NumChunks = (Count + ChunkSize - 1) / ChunkSize;
  const ChunkReplay Replay{Spec,
                           Seeds,
                           FixedDest,
                           Count,
                           Steps,
                           Bursty,
                           Chance(Spec.InjectionRate),
                           Chance(Spec.HotspotFraction),
                           Chance(Duty),
                           Chance(OnExit),
                           Chance(OffExit),
                           Chance(OnRate)};
  std::vector<uint64_t> Runs(NumChunks * Steps);
  auto ChunkRuns = [&](uint64_t B) { return &Runs[B / ChunkSize * Steps]; };
  ThreadPool &Pool = ThreadPool::global();
  Pool.parallelForChunks(0, Count, ChunkSize, [&](uint64_t B, uint64_t E) {
    Replay.run<false>(NodeId(B), NodeId(E), ChunkRuns(B), nullptr);
  });
  uint64_t Total = 0;
  for (uint64_t Step = 0; Step != Steps; ++Step)
    for (uint64_t C = 0; C != NumChunks; ++C)
      Total += std::exchange(Runs[C * Steps + Step], Total);
  std::vector<TrafficEvent> Trace(Total);
  Pool.parallelForChunks(0, Count, ChunkSize, [&](uint64_t B, uint64_t E) {
    Replay.run<true>(NodeId(B), NodeId(E), ChunkRuns(B), Trace.data());
  });
  return Trace;
}

TrafficLoadResult scg::simulateTrafficLoad(const ExplicitScg &Net,
                                           CommModel Model,
                                           const WorkloadSpec &Spec,
                                           uint64_t Steps,
                                           const TrafficLoadOptions &Options) {
  const SuperCayleyGraph &Host = Net.network();
  if (!QueryEngine::supportsTableFree(Host))
    throw std::invalid_argument("simulateTrafficLoad: " + Host.name() +
                                " has no table-free route");
  const NodeId Count = Net.numNodes();
  WorkloadGenerator Gen(Net, Spec);
  std::vector<TrafficEvent> Trace = Gen.generate(Steps);

  NetworkSimulator Sim(Net, Model);
  // Every trace event becomes one packet and one scheduled injection.
  Sim.reserve(Trace.size());
  if (Options.ClosedLoopMaxQueue)
    Sim.setClosedLoop(Options.ClosedLoopMaxQueue);

  // Route setup. Routes are the lifted optimal star routes (as in
  // permutation routing), and by Cayley symmetry a route depends only on
  // the relative label Rel = label(src)^-1 o label(dst) -- left
  // translation is an automorphism -- so the N^2 possible pairs collapse
  // to at most numNodes distinct labels. The setup dedupes on that label
  // (node ids ARE Lehmer ranks, so a flat slot vector indexes the dedup)
  // and routes each distinct label once. Every pass but the first-seen
  // numbering is chunked over the pool and writes by index, so the setup
  // is the same at every thread count.
  TrafficLoadResult Result;
  auto SetupBegin = std::chrono::steady_clock::now();
  ThreadPool &Pool = ThreadPool::global();

  // Per-node labels and inverses, computed once instead of per event.
  std::vector<Permutation> Labels(Count), InvLabels(Count);
  Pool.parallelFor(0, Count, [&](uint64_t U) {
    Labels[U] = Net.label(NodeId(U));
    InvLabels[U] = Labels[U].inverse();
  });

  // Rank pass: each event's relative label, as its Lehmer rank, held in
  // EventSlot until the first-seen pass turns ranks into slots. Source
  // equal to destination keeps the zero-hop sentinel (the identity label
  // is never routed).
  constexpr uint32_t NoSlot = NetworkSimulator::ZeroHopRoute;
  std::vector<uint32_t> EventSlot(Trace.size());
  Pool.parallelForChunks(0, Trace.size(), 0, [&](uint64_t B, uint64_t E) {
    Permutation Rel;
    for (uint64_t I = B; I != E; ++I) {
      const TrafficEvent &Ev = Trace[I];
      if (Ev.Src == Ev.Dst) {
        EventSlot[I] = NoSlot;
        continue;
      }
      InvLabels[Ev.Src].composeInto(Labels[Ev.Dst], Rel);
      EventSlot[I] = Net.rankOf(Rel);
    }
  });

  // First-seen pass, serial: number the distinct ranks in trace order, so
  // slots, and with them the route batch and the simulator's route pool,
  // are laid out exactly as a serial dedup over the trace lays them out.
  // A rank is a node id, so its label is already in Labels.
  std::vector<uint32_t> LabelSlot(Count, NoSlot);
  std::vector<Permutation> Rels;
  Rels.reserve(std::min<uint64_t>(Count, Trace.size()));
  for (uint32_t &Slot : EventSlot) {
    if (Slot == NoSlot)
      continue;
    uint32_t &Seen = LabelSlot[Slot];
    if (Seen == NoSlot) {
      Seen = uint32_t(Rels.size());
      Rels.push_back(Labels[Slot]);
    }
    Slot = Seen;
  }
  Result.DistinctLabels = Rels.size();

  // One QueryEngine batch over the global ThreadPool computes every
  // distinct route into a flat arena (chunk boundaries are a function of
  // the batch length only, so the arena is byte-identical at every thread
  // count).
  RouteArena Arena = QueryEngine(Host).routeBatchRelative(Rels);
  // One bulk call copies the arena into the simulator's route pool once;
  // every injection indexes its label's segment. Packet I is event I.
  [[maybe_unused]] uint32_t FirstId = Sim.scheduleRoutedInjections(
      Trace, EventSlot, Arena.Hops, Arena.Offsets, Spec.FlitCount);
  assert(FirstId == 0 && "packet ids do not start at the trace");
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
  Latencies.reserve(Result.Sim.Delivered);
  uint64_t RouteHops = 0;
  uint64_t HopSum = 0;
  uint64_t LatencySum = 0;
  for (size_t I = 0; I != Trace.size(); ++I) {
    const uint32_t Slot = EventSlot[I];
    const uint64_t Hops = Slot == NoSlot ? 0 : Arena.length(Slot);
    RouteHops += Hops;
    uint64_t DeliverStep = Sim.deliveryStep(uint32_t(I));
    if (DeliverStep == NetworkSimulator::NotDelivered)
      continue; // still in the network at the horizon.
    uint64_t Latency = Hops ? DeliverStep - Trace[I].Step + 1 : 0;
    Latencies.push_back(Latency);
    LatencySum += Latency;
    HopSum += Hops;
  }
  if (!Latencies.empty()) {
    Result.MeanHops = double(HopSum) / double(Latencies.size());
    Result.MeanLatency = double(LatencySum) / double(Latencies.size());
    // Two selections instead of a sort. The first leaves every latency
    // at or above P50 in [P50, end), so P99 is selected from that range;
    // the second selection may reorder P50's slot, so P50 is read first.
    auto P50 = Latencies.begin() + (Latencies.size() - 1) * 50 / 100;
    auto P99 = Latencies.begin() + (Latencies.size() - 1) * 99 / 100;
    std::nth_element(Latencies.begin(), P50, Latencies.end());
    Result.P50Latency = *P50;
    std::nth_element(P50, P99, Latencies.end());
    Result.P99Latency = *P99;
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
    Reg->counter("traffic.setup.route_hops").add(RouteHops);
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
