//===- comm/Simulator.cpp - Packet-level simulator -----------------------===//
//
// One globally synchronous step loop that touches only active work: a
// bitmap of non-empty link queues and a bitmap of in-flight multi-flit
// links, both scanned in ascending id, and a jump over every step at which
// nothing is due. Why each skipped step could not have changed a result
// is spelled out at the jump (NextDueStep) and at the cap. Link queues are
// the intrusive FIFOs of Simulator.h (pushQueue/popQueue). Within a step,
// every transmitting link is picked from the bitmaps before any packet
// record is read, so the transmit pass can prefetch the head packets of
// links picked further ahead; why that order gives the interleaved
// result is spelled out at the pick. Under closed loop each node keeps
// its deferred injections in a FIFO of its own, retried only after the
// node transmitted; why that admits what one global FIFO retried every
// step would is spelled out at the retry.
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

std::string scg::commModelName(CommModel Model) {
  switch (Model) {
  case CommModel::AllPort:
    return "all-port";
  case CommModel::SinglePort:
    return "single-port";
  case CommModel::SingleDimension:
    return "single-dimension";
  }
  assert(false && "unknown model");
  return "?";
}

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

/// Calls \p F(I) for every set bit I of \p Bits in ascending order. Each
/// word is read once, so \p F may clear bits (its own or later ones)
/// without disturbing the scan.
template <typename Fn>
void forEachSetBit(const std::vector<uint64_t> &Bits, Fn F) {
  for (size_t W = 0; W != Bits.size(); ++W)
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

} // namespace

template <bool Collect>
SimulationResult NetworkSimulator::runImpl(uint64_t MaxSteps) {
  SimulationResult Result;
  Result.Delivered = DeliveredAtInject;
  const unsigned Degree = Net.degree();
  const uint64_t CycleLen = DimensionCycle.size();
  std::vector<uint32_t> Moved;
  std::vector<size_t> Landed;   ///< links whose message arrived this step.
  std::vector<uint32_t> Picked; ///< links transmitting this step, in order.

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
  const bool PerGen = Model == CommModel::SingleDimension;
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
  auto Push = [&](size_t Q, uint32_t Id) {
    pushQueue(Q, Id);
    SetBit(Queued, Q);
    if (PerGen)
      ++QueuedOnGen[Q % Degree];
  };
  auto PopFront = [&](size_t Q) {
    popQueue(Q);
    if (QueueLen[Q] == 0)
      ClearBit(Queued, Q);
    if (PerGen)
      --QueuedOnGen[Q % Degree];
  };
  // Packets injected before run() sit in their queues already: one pass
  // over every queue length seeds the active sets.
  for (size_t Q = 0; Q != QueueLen.size(); ++Q)
    if (QueueLen[Q] != 0) {
      SetBit(Queued, Q);
      if (PerGen)
        QueuedOnGen[Q % Degree] += QueueLen[Q];
    }

  // Closed-loop admission state. Each node keeps its deferred injections
  // in a FIFO of Injections indices (DeferHead, DeferTail), chained
  // through TimedInjection::NextDeferred, so deferring allocates nothing.
  // Retry lists the nodes to retry at the next executed step.
  const uint64_t Limit = ClosedLoopMaxQueue;
  std::vector<uint32_t> DeferHead(Limit ? Net.numNodes() : 0, NoInjection);
  std::vector<uint32_t> DeferTail(DeferHead.size(), NoInjection);
  uint64_t DeferredCount = 0;
  std::vector<NodeId> Retry;
  auto Defer = [&](uint32_t I, NodeId U) {
    Injections[I].NextDeferred = NoInjection;
    if (DeferHead[U] == NoInjection)
      DeferHead[U] = I;
    else
      Injections[DeferTail[U]].NextDeferred = I;
    DeferTail[U] = I;
    ++DeferredCount;
  };
  auto NodeQueueDepth = [&](NodeId U) {
    size_t Depth = 0;
    for (GenIndex G = 0; G != Degree; ++G)
      Depth += QueueLen[queueIndex(U, G)];
    return Depth;
  };
  size_t InjCursor = 0;

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

  // Start-of-step queue sample: MaxQueueLength, and the occupancy fields;
  // returns the queued total. A skipped step's sample equals the one taken
  // at the next executed step minus that step's injections, so skipping it
  // loses nothing. The same pass lists the nodes with queued packets, in
  // ascending id, for phase 1.
  std::vector<NodeId> ActiveNodes;
  auto Sample = [&] {
    uint64_t Longest = 0, Total = 0;
    size_t NodeEnd = 0; ///< one past the last listed node's queues.
    ActiveNodes.clear();
    forEachSetBit(Queued, [&](size_t Q) {
      uint64_t Len = QueueLen[Q];
      Longest = std::max(Longest, Len);
      Total += Len;
      if (Q >= NodeEnd) {
        ActiveNodes.push_back(NodeId(Q / Degree));
        NodeEnd = queueIndex(ActiveNodes.back() + 1, 0);
      }
    });
    Result.MaxQueueLength = std::max(Result.MaxQueueLength, Longest);
    if constexpr (Collect) {
      Events.QueuedPackets = Total;
      Events.MaxQueueDepth = Longest;
    }
    return Total;
  };

  uint64_t Step = NextDueStep(0, false);
  uint64_t ExecutedEnd = 0; ///< one past the last executed step.
  bool Capped = false;
  while (Pending != 0 || InjCursor != Injections.size() ||
         DeferredCount != 0) {
    if (Step >= MaxSteps) {
      Capped = true;
      break;
    }
    Moved.clear();
    if constexpr (Collect) {
      Events.clear();
      Events.Step = Step;
    }

    // Scheduled injections enter their queues at the start of their step,
    // before the occupancy sample, so they are visible exactly like pre-run
    // injections are at step 0. Zero-hop injections deliver on the spot.
    // Under closed loop an injection whose source node is at the queue
    // depth limit is deferred instead; deferred injections retry first
    // (they were scheduled earliest), each node's in FIFO order.
    auto Admit = [&](const TimedInjection &Inj) {
      Packet &P = Packets[Inj.Id];
      if (Step != Inj.Step) {
        ++Result.DeferredInjections;
        Result.DeferredSteps += Step - Inj.Step;
      }
      if (P.RouteLen == 0) {
        P.DeliveredAt = Step;
        ++Result.Delivered;
        if constexpr (Collect)
          Events.Deliveries.push_back(Inj.Id);
        return;
      }
      Push(queueIndex(P.At, routeHop(P, 0)), Inj.Id);
      ++Pending;
    };
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
    for (NodeId U : Retry)
      if (NodeQueueDepth(U) < Limit)
        Retry[Kept++] = U;
    Retry.resize(Kept);
    for (size_t I = 0; I != Kept; ++I) {
      if (I + PrefetchAhead < Kept)
        __builtin_prefetch(&Injections[DeferHead[Retry[I + PrefetchAhead]]]);
      if (I + RetryPacketAhead < Kept)
        __builtin_prefetch(
            &Packets[Injections[DeferHead[Retry[I + RetryPacketAhead]]].Id]);
      const NodeId U = Retry[I];
      for (size_t Depth = NodeQueueDepth(U);
           Depth < Limit && DeferHead[U] != NoInjection; ++Depth) {
        const TimedInjection &Inj = Injections[DeferHead[U]];
        DeferHead[U] = Inj.NextDeferred;
        --DeferredCount;
        Admit(Inj);
      }
    }
    // A node whose FIFO is still non-empty is at the limit, so new
    // injections queue behind its deferred ones.
    while (InjCursor != Injections.size() &&
           Injections[InjCursor].Step <= Step) {
      const uint32_t I = uint32_t(InjCursor++);
      const Packet &P = Packets[Injections[I].Id];
      if (Limit && P.RouteLen != 0 &&
          (DeferHead[P.At] != NoInjection || NodeQueueDepth(P.At) >= Limit))
        Defer(I, P.At);
      else
        Admit(Injections[I]);
    }

    Result.QueuedPacketSteps += Sample();
    ++Result.ExecutedSteps;

    // Phase 0: account in-flight multi-flit occupancy and complete the
    // transmissions whose last flit lands this step.
    Landed.clear();
    if (InFlightLinks != 0)
      forEachSetBit(Flying, [&](size_t Q) {
        const InFlight &F = Busy[Q];
        // The link is occupied this step by a transmission selected at an
        // earlier step (its selection step was counted at selection time).
        ++Result.BusyLinkSteps;
        if constexpr (Collect)
          Events.Active.push_back({NodeId(Q / Degree), GenIndex(Q % Degree),
                                   F.Id, Packets[F.Id].Flits, false});
        if (F.DoneStep != Step)
          return;
        // The link stays occupied through this arrival step: it leaves
        // the in-flight set after phase 1.
        Packet &P = Packets[F.Id];
        P.At = Net.next(P.At, routeHop(P, P.NextHop));
        ++P.NextHop;
        Moved.push_back(F.Id);
        ++Result.Transmissions;
        Landed.push_back(Q);
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
    const GenIndex Scheduled =
        PerGen ? DimensionCycle[Step % CycleLen] : GenIndex(0);
    if constexpr (Collect) {
      Events.ScheduledLink = Scheduled;
      Events.HasScheduledLink = PerGen;
    }
    auto Pick = [&](size_t Q) {
      if (TestBit(Flying, Q) || !TestBit(Queued, Q))
        return false; // mid-message, or nothing to send.
      Picked.push_back(uint32_t(Q));
      return true;
    };
    Picked.clear();
    for (NodeId Node : ActiveNodes) {
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
      ++Result.BusyLinkSteps;
      if constexpr (Collect)
        Events.Active.push_back({Node, Link, Id, P.Flits, true});
      PopFront(Q);
      if (P.Flits > 1) {
        // Occupy the link for Flits steps; arrival in phase 0 of step
        // Step + Flits - 1, node port free again at Step + Flits.
        Busy[Q] = {Id, Step + P.Flits - 1};
        NodeBusyUntil[Node] = Step + P.Flits;
        SetBit(Flying, Q);
        ++InFlightLinks;
        continue;
      }
      P.At = Net.next(Node, Link);
      ++P.NextHop;
      Moved.push_back(Id);
      ++Result.Transmissions;
    }
    const bool Transmitted = !Picked.empty();

    // Closed loop: the nodes to retry at the next executed step are the
    // ones that transmitted and still hold deferred injections. Picks come
    // node by node in ascending order, so comparing with the last listed
    // node dedupes.
    if (Limit) {
      Retry.clear();
      for (uint32_t Q : Picked) {
        const NodeId U = NodeId(Q / Degree);
        if (DeferHead[U] != NoInjection && (Retry.empty() || Retry.back() != U))
          Retry.push_back(U);
      }
    }

    for (size_t Q : Landed)
      ClearBit(Flying, Q);
    InFlightLinks -= Landed.size();

    // Phase 2: re-enqueue or deliver the moved packets. Two-phase keeps a
    // packet from hopping twice in one step.
    for (uint32_t Id : Moved) {
      Packet &P = Packets[Id];
      if (P.NextHop != P.RouteLen) {
        Push(queueIndex(P.At, routeHop(P, P.NextHop)), Id);
        continue;
      }
      P.DeliveredAt = Step;
      ++Result.Delivered;
      --Pending;
      if constexpr (Collect)
        Events.Deliveries.push_back(Id);
    }

    if constexpr (Collect) {
      Events.Arrivals = Moved;
      for (SimObserver *O : Observers)
        O->onStep(*this, Events);
    }
    ExecutedEnd = Step + 1;
    Step = NextDueStep(Step + 1, Transmitted);
  }

  if (Capped) {
    // Steps in [ExecutedEnd, MaxSteps) were skipped, not run; any of them
    // would have sampled the queues as the last executed step left them.
    if (ExecutedEnd < MaxSteps)
      Sample();
    Result.Steps = MaxSteps;
  } else {
    Result.Steps = ExecutedEnd;
  }
  Result.Completed = !Capped;
  double LinkSteps = double(Net.numNodes()) * Degree * double(Result.Steps);
  Result.LinkUtilization =
      LinkSteps != 0.0 ? double(Result.BusyLinkSteps) / LinkSteps : 0.0;
  if constexpr (Collect) {
    for (SimObserver *O : Observers)
      O->onRunEnd(*this, Result);
  }
  return Result;
}
