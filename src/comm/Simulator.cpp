//===- comm/Simulator.cpp - Packet-level simulator -----------------------===//
//
// One synchronous step loop that touches only active work: a bitmap of
// non-empty link queues and a bitmap of in-flight multi-flit links, both
// scanned in ascending id, and a jump over every step at which nothing is
// due. Why each skipped step could not have changed a result is spelled
// out at the jump (NextDueStep) and at the cap. Link queues are the
// intrusive FIFOs of Simulator.h (pushQueue/popQueue). Within a step,
// every transmitting link is picked from the bitmaps before any packet
// record is read, so the transmit pass can prefetch the head packets of
// links picked further ahead; why that order gives the interleaved
// result is spelled out at the pick. Under closed loop each node keeps
// its deferred injections in a FIFO of its own, retried only after the
// node transmitted; why that admits what one global FIFO retried every
// step would is spelled out at the retry.
//
// A step runs over fixed node chunks on the ThreadPool, in two regions
// with a barrier between them:
//
//   A (per source chunk)       retry and admit the chunk's injections,
//                              sample, phase 0, pick (1a) and transmit
//                              (1b) at its nodes; deliver every packet
//                              whose hop ends its route, and bucket every
//                              other moved packet by destination chunk,
//                              phase 0 landings apart from 1b hops
//   B (per destination chunk)  queue the chunk's arrivals, draining all
//                              phase 0 buckets in source-chunk order, then
//                              all 1b buckets in source-chunk order
//
// Every phase of region A reads and writes only its own nodes' queues,
// ports, deferred injections and bitmap words (a chunk is a multiple of
// 64 nodes, so no bitmap word straddles two chunks): the models let a
// node decide from its own state alone. The serial loop's Moved order is
// every chunk's phase 0 landings in node order, then every chunk's 1b
// hops in pick order, which is exactly the order region B drains the
// buckets in, so every link FIFO sees the serial push order. Counters
// are per chunk and merged in chunk order after region B; observed runs
// rebuild StepEvents in the serial order (zero-hop admissions by
// injection index, then Moved order) and fire onStep on the calling
// thread. The chunks depend on the node count only, so no result depends
// on the thread count.
//
//===----------------------------------------------------------------------===//

#include "comm/Simulator.h"

#include "comm/SimObserver.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <numeric>

using namespace scg;

NetworkSimulator::NetworkSimulator(const ExplicitScg &Net, CommModel Model)
    : Net(Net), Model(Model),
      QueueHead(size_t(Net.numNodes()) * Net.degree()),
      QueueTail(QueueHead.size()), QueueLen(QueueHead.size(), 0),
      Busy(QueueHead.size()), DimensionCycle(Net.degree()),
      PortPointer(Net.numNodes(), 0), NodeBusyUntil(Net.numNodes(), 0) {
  assert(QueueHead.size() <= ~uint32_t(0) && "link ids exceed 32 bits");
  std::iota(DimensionCycle.begin(), DimensionCycle.end(), GenIndex(0));
}

std::pair<uint32_t, uint32_t>
NetworkSimulator::appendRoute(std::span<const GenIndex> Route) {
  assert(RoutePool.size() + Route.size() <= ~uint32_t(0) &&
         "route pool exceeds 32-bit indexing");
  uint32_t Begin = uint32_t(RoutePool.size());
  RoutePool.insert(RoutePool.end(), Route.begin(), Route.end());
  return {Begin, uint32_t(Route.size())};
}

void NetworkSimulator::injectPacket(NodeId Src, std::vector<GenIndex> Route,
                                    unsigned FlitCount) {
  assert(Src < Net.numNodes() && "source out of range");
  assert(FlitCount >= 1 && "a message carries at least one flit");
  assert(!Outcome && "packet added after run()");
  auto [Begin, Len] = appendRoute(Route);
  Packets.push_back({Src, 0, FlitCount, Begin, Len, NoPacket, NotDelivered});
  uint32_t Id = Packets.size() - 1;
  if (Len == 0) {
    // Already at its destination: delivered traffic, even though there is
    // nothing to simulate.
    Packets.back().DeliveredAt = 0;
    ++DeliveredAtInject;
    return;
  }
  pushQueue(queueIndex(Src, RoutePool[Begin]), Id);
  ++Pending;
}

uint32_t NetworkSimulator::scheduleInjection(uint64_t Step, NodeId Src,
                                             std::vector<GenIndex> Route,
                                             unsigned FlitCount) {
  assert(Src < Net.numNodes() && "source out of range");
  assert(FlitCount >= 1 && "a message carries at least one flit");
  assert(!Outcome && "packet added after run()");
  auto [Begin, Len] = appendRoute(Route);
  Packets.push_back({Src, 0, FlitCount, Begin, Len, NoPacket, NotDelivered});
  uint32_t Id = Packets.size() - 1;
  Injections.push_back({Step, Id, NoInjection});
  return Id;
}

uint32_t NetworkSimulator::scheduleRoutedInjections(
    std::span<const TrafficEvent> Events, std::span<const uint32_t> RouteSlots,
    std::span<const GenIndex> RouteHops, std::span<const uint32_t> RouteOffsets,
    unsigned FlitCount) {
  assert(FlitCount >= 1 && "a message carries at least one flit");
  assert(!Outcome && "packet added after run()");
  assert(Events.size() == RouteSlots.size() && "one route slot per event");
  assert(!RouteOffsets.empty() && RouteOffsets.back() == RouteHops.size() &&
         "route offsets do not cover the route pool");
  assert(Packets.size() + Events.size() <= NoPacket &&
         "packet ids exceed 32 bits");
  const uint32_t FirstId = uint32_t(Packets.size());
  const size_t FirstInjection = Injections.size();
  [[maybe_unused]] const size_t NumRoutes = RouteOffsets.size() - 1;
  [[maybe_unused]] const NodeId Count = Net.numNodes();
  const uint32_t PoolBase = appendRoute(RouteHops).first;
  Packets.resize(Packets.size() + Events.size());
  Injections.resize(Injections.size() + Events.size());
  ThreadPool::global().parallelForChunks(
      0, Events.size(), 0, [&](uint64_t Begin, uint64_t End) {
        for (uint64_t I = Begin; I != End; ++I) {
          const TrafficEvent &E = Events[I];
          const uint32_t Slot = RouteSlots[I];
          assert(E.Src < Count && "source out of range");
          assert((Slot == ZeroHopRoute || Slot < NumRoutes) &&
                 "unknown route slot");
          uint32_t RouteBegin = PoolBase, RouteLen = 0;
          if (Slot != ZeroHopRoute) {
            RouteBegin += RouteOffsets[Slot];
            RouteLen = RouteOffsets[Slot + 1] - RouteOffsets[Slot];
          }
          const uint32_t Id = FirstId + uint32_t(I);
          Packets[Id] = {E.Src,    0,        FlitCount,   RouteBegin,
                         RouteLen, NoPacket, NotDelivered};
          Injections[FirstInjection + I] = {E.Step, Id, NoInjection};
        }
      });
  return FirstId;
}

void NetworkSimulator::setDimensionCycle(std::vector<GenIndex> Cycle) {
  assert(!Cycle.empty() && "dimension cycle must be nonempty");
  assert(std::all_of(Cycle.begin(), Cycle.end(),
                     [&](GenIndex G) { return G < Net.degree(); }) &&
         "dimension cycle names a generator the network lacks");
  DimensionCycle = std::move(Cycle);
}

void NetworkSimulator::reserve(size_t Count) {
  Packets.reserve(Count);
  Injections.reserve(Count);
}

void NetworkSimulator::addObserver(SimObserver *Observer) {
  assert(Observer && "null observer");
  Observers.push_back(Observer);
}

SimulationResult NetworkSimulator::run(uint64_t MaxSteps) {
  // Single-shot: the run consumed the injection schedule and moved every
  // packet, so a second pass would re-admit injections from where their
  // packets ended up.
  if (Outcome)
    return *Outcome;
  // Scheduled injections enter their queues in (step, call order); the sort
  // is stable so same-step packets keep their scheduling order. Traces
  // scheduled in step order (simulateTrafficLoad's) are already sorted,
  // and a stable sort would leave them as they are.
  auto ByStep = [](const TimedInjection &A, const TimedInjection &B) {
    return A.Step < B.Step;
  };
  if (!std::is_sorted(Injections.begin(), Injections.end(), ByStep))
    std::stable_sort(Injections.begin(), Injections.end(), ByStep);
  // One dispatch on entry: the uninstrumented loop contains no observer
  // code at all, so observability is free when no observer is attached.
  Outcome = Observers.empty() ? runImpl<false>(MaxSteps)
                              : runImpl<true>(MaxSteps);
  return *Outcome;
}

namespace {

/// Calls \p F(I) for every set bit I in words [\p WordBegin, \p WordEnd)
/// of \p Bits, in ascending order. Each word is read once, so \p F may
/// clear bits (its own or later ones) without disturbing the scan.
template <typename Fn>
void forEachSetBit(const std::vector<uint64_t> &Bits, size_t WordBegin,
                   size_t WordEnd, Fn F) {
  for (size_t W = WordBegin; W != WordEnd; ++W)
    for (uint64_t Word = Bits[W]; Word; Word &= Word - 1)
      F(W * 64 + size_t(std::countr_zero(Word)));
}

constexpr uint64_t NeverStep = ~uint64_t(0);

/// How many picks ahead the transmit pass prefetches a head packet: far
/// enough for a memory miss to land before its transmission, near enough
/// that the line is still cached when it does.
constexpr size_t PrefetchAhead = 16;

/// How many retried nodes ahead the closed-loop retry pass prefetches the
/// head deferred packet. The packet's address comes from the head
/// injection, which is prefetched PrefetchAhead nodes ahead, so the packet
/// prefetch trails it by half that distance and finds the entry landed.
constexpr size_t RetryPacketAhead = PrefetchAhead / 2;

/// At most this many node chunks (fewer on networks under 16 * 64 nodes).
constexpr NodeId MaxStepChunks = 16;

/// Nodes per step chunk: a multiple of 64, so a chunk's links fill whole
/// words of the Queued and Flying bitmaps at any degree, and a function of
/// the node count only, so the chunks -- and with them every result --
/// are the same at every thread count. star(5) gets two chunks of 64,
/// star(8) sixteen of 2560.
NodeId stepChunkNodes(NodeId NumNodes) {
  const NodeId PerChunk = (NumNodes + MaxStepChunks - 1) / MaxStepChunks;
  return std::max<NodeId>(64, (PerChunk + 63) / 64 * 64);
}

/// A moved packet on its way into region B: the link queue it joins, at a
/// node of the bucket's destination chunk.
struct Arrival {
  uint32_t Queue;
  uint32_t Id;
};

/// One node chunk's share of a step. Region A (sources) writes only this
/// record and the chunk's own nodes, links and bitmap words; region B
/// (arrivals) writes only the destination chunk's. Aligned so that no two
/// chunks' counters share a cache line.
struct alignas(64) StepChunk {
  size_t WordBegin = 0, WordEnd = 0; ///< its words of Queued and Flying.
  /// Its next and end position in the run's injections bucketed by
  /// source chunk.
  size_t InjCursor = 0, InjEnd = 0;
  std::vector<NodeId> ActiveNodes; ///< nodes with queued packets, ascending.
  std::vector<NodeId> Retry;       ///< closed loop: nodes to retry next.
  std::vector<uint32_t> Picked;    ///< links transmitting, in pick order.
  std::vector<uint32_t> Landed;    ///< links whose message arrived.
  /// Packets that completed a hop from its nodes: Moved[0] the phase 0
  /// landings in link order, Moved[1] the phase 1b hops in pick order.
  std::vector<uint32_t> Moved[2];
  /// The moved packets that go on from a node of chunk D, in Moved order:
  /// Out[D] for phase 0 landings, Out[NumChunks + D] for phase 1b.
  std::vector<std::vector<Arrival>> Out;
  /// Changes this step, folded into the run's totals by the merge.
  int64_t PendingDelta = 0, InFlightDelta = 0, DeferredDelta = 0;
  std::vector<int64_t> QueuedOnGenDelta; ///< single-dimension only.
  uint64_t Queued = 0, Longest = 0; ///< this step's start-of-step sample.
  /// Run totals of the additive fields (Delivered, Transmissions,
  /// BusyLinkSteps, deferral counts, QueuedPacketSteps) and the max
  /// MaxQueueLength of this chunk's links.
  SimulationResult Sums;
  // Observed runs only: this step's events, by phase (0, 1b).
  std::vector<LinkActivity> Active[2];
  std::vector<uint32_t> Done[2];
  std::vector<uint32_t> ZeroHop; ///< injection indices delivered on admit.
};

} // namespace

template <bool Collect>
SimulationResult NetworkSimulator::runImpl(uint64_t MaxSteps) {
  const unsigned Degree = Net.degree();
  const NodeId NumNodes = Net.numNodes();
  const uint64_t CycleLen = DimensionCycle.size();
  const bool PerGen = Model == CommModel::SingleDimension;
  ThreadPool &Pool = ThreadPool::global();

  // Collection is a compile-time parameter: with no observer attached the
  // dispatch selects the Collect = false instantiation, whose hot loop
  // contains no observer code at all.
  StepEvents Events;
  if constexpr (Collect) {
    Events.Model = Model;
    for (SimObserver *O : Observers)
      O->onRunBegin(*this);
  }

  // The active sets. Queued has a bit per non-empty link queue, Flying a
  // bit per link occupied by a multi-flit message (through its arrival
  // step). Selection tests these bits, not the queues and Busy records,
  // so an idle link costs no cache miss. Pending counts queued plus
  // in-flight packets, so between steps packets are queued somewhere
  // exactly when Pending > InFlightLinks. Single-dimension runs also count
  // queued packets per generator, to find the next step whose scheduled
  // generator has work.
  std::vector<uint64_t> Queued((QueueLen.size() + 63) / 64, 0);
  std::vector<uint64_t> Flying(Queued.size(), 0);
  uint64_t InFlightLinks = 0;
  std::vector<uint64_t> QueuedOnGen(PerGen ? Degree : 0, 0);
  auto SetBit = [](std::vector<uint64_t> &Bits, size_t I) {
    Bits[I / 64] |= uint64_t(1) << (I % 64);
  };
  auto ClearBit = [](std::vector<uint64_t> &Bits, size_t I) {
    Bits[I / 64] &= ~(uint64_t(1) << (I % 64));
  };
  auto TestBit = [](const std::vector<uint64_t> &Bits, size_t I) {
    return (Bits[I / 64] >> (I % 64)) & 1;
  };
  // Packets injected before run() sit in their queues already: one pass
  // over every queue length seeds the active sets.
  for (size_t Q = 0; Q != QueueLen.size(); ++Q)
    if (QueueLen[Q] != 0) {
      SetBit(Queued, Q);
      if (PerGen)
        QueuedOnGen[Q % Degree] += QueueLen[Q];
    }

  // The node chunks.
  const NodeId ChunkNodes = stepChunkNodes(NumNodes);
  const size_t NumChunks = (NumNodes + ChunkNodes - 1) / ChunkNodes;
  std::vector<StepChunk> Chunks(NumChunks);
  for (size_t C = 0; C != NumChunks; ++C) {
    StepChunk &S = Chunks[C];
    const size_t End = std::min<size_t>(NumNodes, (C + 1) * ChunkNodes);
    S.WordBegin = C * ChunkNodes * Degree / 64;
    S.WordEnd = (End * Degree + 63) / 64;
    S.Out.resize(2 * NumChunks);
    S.QueuedOnGenDelta.assign(QueuedOnGen.size(), 0);
  }

  // The injections, bucketed by source chunk with a stable counting pass
  // (count per span and chunk, prefix-sum in chunk-then-span order, fill),
  // so each chunk admits its own in (step, call) order and scans no other
  // chunk's. Neither array is zeroed: the passes write every entry.
  std::vector<uint32_t, UninitAllocator<uint32_t>> ChunkInjections(
      Injections.size());
  {
    static_assert(MaxStepChunks <= 256, "source chunks are stored as bytes");
    std::vector<uint8_t, UninitAllocator<uint8_t>> SourceChunk(
        Injections.size());
    const uint64_t Span = ThreadPool::defaultChunkSize(Injections.size());
    const size_t NumSpans = (Injections.size() + Span - 1) / Span;
    std::vector<uint32_t> Slots(NumSpans * NumChunks, 0);
    Pool.parallelForChunks(
        0, Injections.size(), Span, [&](uint64_t B, uint64_t E) {
          uint32_t *Row = &Slots[B / Span * NumChunks];
          for (uint64_t I = B; I != E; ++I)
            ++Row[SourceChunk[I] =
                      uint8_t(Packets[Injections[I].Id].At / ChunkNodes)];
        });
    uint32_t Next = 0;
    for (size_t C = 0; C != NumChunks; ++C) {
      Chunks[C].InjCursor = Next;
      for (size_t Sp = 0; Sp != NumSpans; ++Sp)
        Next += std::exchange(Slots[Sp * NumChunks + C], Next);
      Chunks[C].InjEnd = Next;
    }
    Pool.parallelForChunks(0, Injections.size(), Span,
                           [&](uint64_t B, uint64_t E) {
                             uint32_t *Row = &Slots[B / Span * NumChunks];
                             for (uint64_t I = B; I != E; ++I)
                               ChunkInjections[Row[SourceChunk[I]]++] =
                                   uint32_t(I);
                           });
  }

  auto Push = [&](StepChunk &C, size_t Q, uint32_t Id) {
    pushQueue(Q, Id);
    SetBit(Queued, Q);
    if (PerGen)
      ++C.QueuedOnGenDelta[Q % Degree];
  };
  auto PopFront = [&](StepChunk &C, size_t Q) {
    popQueue(Q);
    if (QueueLen[Q] == 0)
      ClearBit(Queued, Q);
    if (PerGen)
      --C.QueuedOnGenDelta[Q % Degree];
  };

  // Closed-loop admission state. Each node keeps its deferred injections
  // in a FIFO of Injections indices (DeferHead, DeferTail), chained
  // through TimedInjection::NextDeferred, so deferring allocates nothing.
  // A chunk's Retry lists its nodes to retry at the next executed step.
  const uint64_t Limit = ClosedLoopMaxQueue;
  std::vector<uint32_t> DeferHead(Limit ? NumNodes : 0, NoInjection);
  std::vector<uint32_t> DeferTail(DeferHead.size(), NoInjection);
  uint64_t DeferredCount = 0;
  auto Defer = [&](StepChunk &C, uint32_t I, NodeId U) {
    Injections[I].NextDeferred = NoInjection;
    if (DeferHead[U] == NoInjection)
      DeferHead[U] = I;
    else
      Injections[DeferTail[U]].NextDeferred = I;
    DeferTail[U] = I;
    ++C.DeferredDelta;
  };
  auto NodeQueueDepth = [&](NodeId U) {
    size_t Depth = 0;
    for (GenIndex G = 0; G != Degree; ++G)
      Depth += QueueLen[queueIndex(U, G)];
    return Depth;
  };
  // The first injection not yet due, over the whole run's injections.
  size_t InjCursor = 0;
  auto DueEnd = [&](uint64_t S) {
    return size_t(std::upper_bound(Injections.begin() + InjCursor,
                                   Injections.end(), S,
                                   [](uint64_t V, const TimedInjection &T) {
                                     return V < T.Step;
                                   }) -
                  Injections.begin());
  };

  // The first step >= From at which anything can happen. A skipped step
  // would have changed nothing: no link is in flight, no queue may
  // transmit (single-dimension: no queued packet is on the scheduled
  // generator), nothing is injected, and a deferred injection fails its
  // depth test again -- depths only fall when a step transmits, so after
  // a step that transmitted, From itself is due. NeverStep when nothing
  // will ever be due again (traffic stalled on an unscheduled generator).
  auto NextDueStep = [&](uint64_t From, bool Transmitted) -> uint64_t {
    if (InFlightLinks != 0 || (Transmitted && DeferredCount != 0))
      return From;
    uint64_t Next = InjCursor != Injections.size()
                        ? std::max(From, Injections[InjCursor].Step)
                        : NeverStep;
    if (Pending > InFlightLinks) {
      if (!PerGen)
        return From;
      for (uint64_t S = From; S < Next && S - From < CycleLen; ++S)
        if (QueuedOnGen[DimensionCycle[S % CycleLen]])
          return S;
    }
    return Next;
  };

  // Start-of-step queue sample of one chunk: its longest queue and queued
  // total, and its nodes with queued packets, in ascending id, for phase
  // 1. A skipped step's sample equals the one taken at the next executed
  // step minus that step's injections, so skipping it loses nothing.
  auto Sample = [&](StepChunk &C) {
    uint64_t Longest = 0, Total = 0;
    size_t NodeEnd = 0; ///< one past the last listed node's queues.
    C.ActiveNodes.clear();
    forEachSetBit(Queued, C.WordBegin, C.WordEnd, [&](size_t Q) {
      uint64_t Len = QueueLen[Q];
      Longest = std::max(Longest, Len);
      Total += Len;
      if (Q >= NodeEnd) {
        C.ActiveNodes.push_back(NodeId(Q / Degree));
        NodeEnd = queueIndex(C.ActiveNodes.back() + 1, 0);
      }
    });
    C.Sums.MaxQueueLength = std::max(C.Sums.MaxQueueLength, Longest);
    C.Queued = Total;
    C.Longest = Longest;
  };

  uint64_t Step = NextDueStep(0, false);
  GenIndex Scheduled = 0; ///< single-dimension: this step's generator.

  // Scheduled injections enter their queues at the start of their step,
  // before the occupancy sample, so they are visible exactly like pre-run
  // injections are at step 0. Zero-hop injections deliver on the spot.
  // Under closed loop an injection whose source node is at the queue
  // depth limit is deferred instead; deferred injections retry first
  // (they were scheduled earliest), each node's in FIFO order.
  auto Admit = [&](StepChunk &C, uint32_t I) {
    const TimedInjection &Inj = Injections[I];
    Packet &P = Packets[Inj.Id];
    if (Step != Inj.Step) {
      ++C.Sums.DeferredInjections;
      C.Sums.DeferredSteps += Step - Inj.Step;
    }
    if (P.RouteLen == 0) {
      P.DeliveredAt = Step;
      ++C.Sums.Delivered;
      if constexpr (Collect)
        C.ZeroHop.push_back(I);
      return;
    }
    Push(C, queueIndex(P.At, routeHop(P, 0)), Inj.Id);
    ++C.PendingDelta;
  };

  // Region A: everything a step does at one chunk's nodes, which read and
  // write only their own queues, ports and deferred injections.
  auto StepSources = [&](StepChunk &C) {
    C.Moved[0].clear();
    C.Moved[1].clear();
    // The retry. Per-node FIFOs admit what one global FIFO of every
    // deferred injection would: admitting reads and writes only its own
    // node's queues, so the admitted set and each link queue's push order
    // are the same, and across nodes only order-free sums are shared
    // (deferred injections are never zero-hop, so they add no Deliveries).
    // Retrying only Retry's nodes is exact too: a node with deferred
    // injections was at the limit when it last tried, and its depth falls
    // only when phase 1b pops one of its queues, so a node that did not
    // transmit would fail again. Those that did are filtered on depth
    // first, so the admission pass prefetches only for nodes that admit.
    size_t Kept = 0;
    for (NodeId U : C.Retry)
      if (NodeQueueDepth(U) < Limit)
        C.Retry[Kept++] = U;
    C.Retry.resize(Kept);
    for (size_t I = 0; I != Kept; ++I) {
      if (I + PrefetchAhead < Kept)
        __builtin_prefetch(
            &Injections[DeferHead[C.Retry[I + PrefetchAhead]]]);
      if (I + RetryPacketAhead < Kept)
        __builtin_prefetch(
            &Packets[Injections[DeferHead[C.Retry[I + RetryPacketAhead]]]
                         .Id]);
      const NodeId U = C.Retry[I];
      for (size_t Depth = NodeQueueDepth(U);
           Depth < Limit && DeferHead[U] != NoInjection; ++Depth) {
        const uint32_t Head = DeferHead[U];
        DeferHead[U] = Injections[Head].NextDeferred;
        --C.DeferredDelta;
        Admit(C, Head);
      }
    }
    // A node whose FIFO is still non-empty is at the limit, so new
    // injections queue behind its deferred ones.
    for (; C.InjCursor != C.InjEnd; ++C.InjCursor) {
      const uint32_t I = ChunkInjections[C.InjCursor];
      if (Injections[I].Step > Step)
        break;
      const Packet &P = Packets[Injections[I].Id];
      if (Limit && P.RouteLen != 0 &&
          (DeferHead[P.At] != NoInjection || NodeQueueDepth(P.At) >= Limit))
        Defer(C, I, P.At);
      else
        Admit(C, I);
    }

    Sample(C);
    C.Sums.QueuedPacketSteps += C.Queued;

    // Phase 0: account in-flight multi-flit occupancy and complete the
    // transmissions whose last flit lands this step.
    C.Landed.clear();
    if (InFlightLinks != 0)
      forEachSetBit(Flying, C.WordBegin, C.WordEnd, [&](size_t Q) {
        const InFlight &F = Busy[Q];
        // The link is occupied this step by a transmission selected at an
        // earlier step (its selection step was counted at selection time).
        ++C.Sums.BusyLinkSteps;
        if constexpr (Collect)
          C.Active[0].push_back({NodeId(Q / Degree), GenIndex(Q % Degree),
                                 F.Id, Packets[F.Id].Flits, false});
        if (F.DoneStep != Step)
          return;
        // The link stays occupied through this arrival step: it leaves
        // the in-flight set after phase 1.
        Packet &P = Packets[F.Id];
        P.At = Net.next(P.At, routeHop(P, P.NextHop));
        ++P.NextHop;
        C.Landed.push_back(uint32_t(Q));
        C.Moved[0].push_back(F.Id);
      });

    // Phase 1a, pick: list every permitted, idle link with a queued
    // packet, node by node over the nodes the sample listed (phase 0
    // queues nothing; a node without queued packets would pick nothing,
    // so order and outcome are those of a sweep over every node). Only the
    // bitmaps and the per-node port state are read. Picking every link
    // before transmitting any gives the picks of choosing and transmitting
    // link by link: a link is picked at most once per step, and a
    // transmission changes nothing another link's pick reads (it pops
    // only its own queue, and the single-port busy window it opens is
    // tested once per node, before the node picks).
    auto Pick = [&](size_t Q) {
      if (TestBit(Flying, Q) || !TestBit(Queued, Q))
        return false; // mid-message, or nothing to send.
      C.Picked.push_back(uint32_t(Q));
      return true;
    };
    C.Picked.clear();
    for (NodeId Node : C.ActiveNodes) {
      switch (Model) {
      case CommModel::AllPort:
        for (GenIndex G = 0; G != Degree; ++G)
          Pick(queueIndex(Node, G));
        break;
      case CommModel::SinglePort:
        // A port mid-way through a multi-flit transmission transmits
        // nothing else until the occupancy ends.
        if (NodeBusyUntil[Node] > Step)
          break;
        // Round-robin over links so no queue starves.
        for (unsigned Offset = 0; Offset != Degree; ++Offset) {
          GenIndex G = (PortPointer[Node] + Offset) % Degree;
          if (Pick(queueIndex(Node, G))) {
            PortPointer[Node] = (G + 1) % Degree;
            break;
          }
        }
        break;
      case CommModel::SingleDimension:
        Pick(queueIndex(Node, Scheduled));
        break;
      }
    }

    // Phase 1b, transmit: pop the head of every picked link, in pick
    // order. The head packets are random reads from an array far larger
    // than the caches; prefetching the head of the link PrefetchAhead
    // picks on overlaps those misses instead of paying them one after
    // another.
    const std::vector<uint32_t> &Picked = C.Picked;
    for (size_t I = 0, E = Picked.size(); I != E; ++I) {
      if (I + PrefetchAhead < E)
        __builtin_prefetch(&Packets[QueueHead[Picked[I + PrefetchAhead]]]);
      const size_t Q = Picked[I];
      const uint32_t Id = QueueHead[Q];
      Packet &P = Packets[Id];
      const NodeId Node = P.At;
      const GenIndex Link = routeHop(P, P.NextHop);
      assert(Link < Degree && queueIndex(Node, Link) == Q &&
             "queue corruption");
      // The link is occupied from this step on (one step for a unit
      // packet, Flits steps for a store-and-forward message).
      ++C.Sums.BusyLinkSteps;
      if constexpr (Collect)
        C.Active[1].push_back({Node, Link, Id, P.Flits, true});
      PopFront(C, Q);
      if (P.Flits > 1) {
        // Occupy the link for Flits steps; arrival in phase 0 of step
        // Step + Flits - 1, node port free again at Step + Flits.
        Busy[Q] = {Id, Step + P.Flits - 1};
        NodeBusyUntil[Node] = Step + P.Flits;
        SetBit(Flying, Q);
        ++C.InFlightDelta;
        continue;
      }
      P.At = Net.next(Node, Link);
      ++P.NextHop;
      C.Moved[1].push_back(Id);
    }

    // Closed loop: the nodes to retry at the next executed step are the
    // ones that transmitted and still hold deferred injections. Picks come
    // node by node in ascending order, so comparing with the last listed
    // node dedupes.
    if (Limit) {
      C.Retry.clear();
      for (uint32_t Q : Picked) {
        const NodeId U = NodeId(Q / Degree);
        if (DeferHead[U] != NoInjection &&
            (C.Retry.empty() || C.Retry.back() != U))
          C.Retry.push_back(U);
      }
    }

    for (uint32_t Q : C.Landed)
      ClearBit(Flying, Q);
    C.InFlightDelta -= int64_t(C.Landed.size());

    // Deliver every moved packet whose hop ended its route, here, by the
    // chunk it left; bucket every other one, with the queue it joins, for
    // its destination chunk to push in region B. The packet records are
    // still cached from the hop, so region B reads no moved packet. A pass of
    // its own, as the serial loop's phase 2 was: folded into the transmit
    // pass, the same work costs about a third more there (EXPERIMENTS.md
    // E34).
    for (size_t Phase = 0; Phase != 2; ++Phase) {
      for (uint32_t Id : C.Moved[Phase]) {
        Packet &P = Packets[Id];
        if (P.NextHop != P.RouteLen) {
          C.Out[Phase * NumChunks + P.At / ChunkNodes].push_back(
              {uint32_t(queueIndex(P.At, routeHop(P, P.NextHop))), Id});
          continue;
        }
        P.DeliveredAt = Step;
        ++C.Sums.Delivered;
        --C.PendingDelta;
        if constexpr (Collect)
          C.Done[Phase].push_back(Id);
      }
      C.Sums.Transmissions += C.Moved[Phase].size();
    }
  };

  // Region B: queue the packets that reached chunk D on their next link.
  // The serial order of every moved packet (Moved order) is every chunk's
  // phase 0 landings in chunk order, then every chunk's phase 1b
  // transmissions in chunk order, each chunk's in its own order. Draining
  // the buckets in that order pushes onto every link queue of D in
  // exactly that order, so each FIFO matches the serial loop's.
  auto StepArrivals = [&](size_t D) {
    StepChunk &Dst = Chunks[D];
    for (size_t Phase = 0; Phase != 2; ++Phase)
      for (StepChunk &Src : Chunks) {
        std::vector<Arrival> &Bucket = Src.Out[Phase * NumChunks + D];
        for (const Arrival &A : Bucket)
          Push(Dst, A.Queue, A.Id);
        Bucket.clear();
      }
  };

  // Runs Body over every chunk on the pool, small steps too: on star(8)
  // two dispatches cost less than the chunks save down to a few packets
  // per step (EXPERIMENTS.md E35).
  auto ForEachChunk = [&](auto &&Body) {
    Pool.parallelForChunks(0, NumChunks, 1, [&](uint64_t B, uint64_t E) {
      for (uint64_t C = B; C != E; ++C)
        Body(size_t(C));
    });
  };

  uint64_t ExecutedSteps = 0;
  uint64_t ExecutedEnd = 0; ///< one past the last executed step.
  bool Capped = false;
  while (Pending != 0 || InjCursor != Injections.size() ||
         DeferredCount != 0) {
    if (Step >= MaxSteps) {
      Capped = true;
      break;
    }
    ++ExecutedSteps;
    if (PerGen)
      Scheduled = DimensionCycle[Step % CycleLen];
    const size_t Due = DueEnd(Step);
    ForEachChunk([&](size_t C) { StepSources(Chunks[C]); });
    ForEachChunk(StepArrivals);
    InjCursor = Due;

    // The merge, in chunk order.
    bool Transmitted = false;
    for (StepChunk &C : Chunks) {
      Pending += uint64_t(C.PendingDelta);
      InFlightLinks += uint64_t(C.InFlightDelta);
      DeferredCount += uint64_t(C.DeferredDelta);
      C.PendingDelta = C.InFlightDelta = C.DeferredDelta = 0;
      for (size_t G = 0; G != QueuedOnGen.size(); ++G)
        QueuedOnGen[G] += uint64_t(std::exchange(C.QueuedOnGenDelta[G], 0));
      Transmitted |= !C.Picked.empty();
    }

    // Observers see the serial loop's event order: zero-hop admissions in
    // injection order, then every list in Moved order.
    if constexpr (Collect) {
      Events.clear();
      Events.Step = Step;
      Events.ScheduledLink = Scheduled;
      Events.HasScheduledLink = PerGen;
      auto Drain = [](auto &To, auto &From) {
        To.insert(To.end(), From.begin(), From.end());
        From.clear();
      };
      std::vector<uint32_t> ZeroHop;
      for (StepChunk &C : Chunks) {
        Events.QueuedPackets += C.Queued;
        Events.MaxQueueDepth = std::max(Events.MaxQueueDepth, C.Longest);
        Drain(ZeroHop, C.ZeroHop);
      }
      std::sort(ZeroHop.begin(), ZeroHop.end());
      for (uint32_t I : ZeroHop)
        Events.Deliveries.push_back(Injections[I].Id);
      for (size_t Phase = 0; Phase != 2; ++Phase)
        for (StepChunk &C : Chunks) {
          Drain(Events.Active, C.Active[Phase]);
          Events.Arrivals.insert(Events.Arrivals.end(), C.Moved[Phase].begin(),
                                 C.Moved[Phase].end());
          Drain(Events.Deliveries, C.Done[Phase]);
        }
      for (SimObserver *O : Observers)
        O->onStep(*this, Events);
    }
    ExecutedEnd = Step + 1;
    Step = NextDueStep(Step + 1, Transmitted);
  }

  // Steps in [ExecutedEnd, MaxSteps) were skipped, not run; any of them
  // would have sampled the queues as the last executed step left them.
  if (Capped && ExecutedEnd < MaxSteps)
    for (StepChunk &C : Chunks)
      Sample(C);

  SimulationResult Result;
  Result.Delivered = DeliveredAtInject;
  for (const StepChunk &C : Chunks) {
    const SimulationResult &S = C.Sums;
    Result.Delivered += S.Delivered;
    Result.Transmissions += S.Transmissions;
    Result.BusyLinkSteps += S.BusyLinkSteps;
    Result.MaxQueueLength = std::max(Result.MaxQueueLength, S.MaxQueueLength);
    Result.DeferredInjections += S.DeferredInjections;
    Result.DeferredSteps += S.DeferredSteps;
    Result.QueuedPacketSteps += S.QueuedPacketSteps;
  }
  Result.ExecutedSteps = ExecutedSteps;
  Result.Steps = Capped ? MaxSteps : ExecutedEnd;
  Result.Completed = !Capped;
  double LinkSteps = double(NumNodes) * Degree * double(Result.Steps);
  Result.LinkUtilization =
      LinkSteps != 0.0 ? double(Result.BusyLinkSteps) / LinkSteps : 0.0;
  if constexpr (Collect) {
    for (SimObserver *O : Observers)
      O->onRunEnd(*this, Result);
  }
  return Result;
}
