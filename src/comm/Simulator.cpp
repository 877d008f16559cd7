//===- comm/Simulator.cpp - Packet-level simulator -----------------------===//
//
// One globally synchronous step loop that touches only active work: a
// bitmap of non-empty link queues and a bitmap of in-flight multi-flit
// links, both scanned in ascending id, and a jump over every step at which
// nothing is due. Why each skipped step could not have changed a result
// is spelled out at the jump (NextDueStep) and at the cap. Link queues are
// the intrusive FIFOs of Simulator.h (pushQueue/popQueue).
//
//===----------------------------------------------------------------------===//

#include "comm/Simulator.h"

#include "comm/SimObserver.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <deque>
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
  auto [Begin, Len] = appendRoute(Route);
  Packets.push_back({Src, 0, FlitCount, Begin, Len});
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
  auto [Begin, Len] = appendRoute(Route);
  Packets.push_back({Src, 0, FlitCount, Begin, Len});
  uint32_t Id = Packets.size() - 1;
  Injections.push_back({Step, Id});
  return Id;
}

uint32_t NetworkSimulator::addSharedRoute(std::span<const GenIndex> Route) {
  auto [Begin, Len] = appendRoute(Route);
  SharedRoutes.push_back({Begin, Len});
  return uint32_t(SharedRoutes.size() - 1);
}

uint32_t NetworkSimulator::scheduleInjectionShared(uint64_t Step, NodeId Src,
                                                   uint32_t RouteHandle,
                                                   unsigned FlitCount) {
  assert(Src < Net.numNodes() && "source out of range");
  assert(FlitCount >= 1 && "a message carries at least one flit");
  assert(RouteHandle < SharedRoutes.size() && "unknown shared route");
  auto [Begin, Len] = SharedRoutes[RouteHandle];
  Packets.push_back({Src, 0, FlitCount, Begin, Len});
  uint32_t Id = Packets.size() - 1;
  Injections.push_back({Step, Id});
  return Id;
}

void NetworkSimulator::setDimensionCycle(std::vector<GenIndex> Cycle) {
  assert(!Cycle.empty() && "dimension cycle must be nonempty");
  assert(std::all_of(Cycle.begin(), Cycle.end(),
                     [&](GenIndex G) { return G < Net.degree(); }) &&
         "dimension cycle names a generator the network lacks");
  DimensionCycle = std::move(Cycle);
}

void NetworkSimulator::addObserver(SimObserver *Observer) {
  assert(Observer && "null observer");
  Observers.push_back(Observer);
}

SimulationResult NetworkSimulator::run(uint64_t MaxSteps) {
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
  return Observers.empty() ? runImpl<false>(MaxSteps)
                           : runImpl<true>(MaxSteps);
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

} // namespace

template <bool Collect>
SimulationResult NetworkSimulator::runImpl(uint64_t MaxSteps) {
  SimulationResult Result;
  Result.Delivered = DeliveredAtInject;
  const unsigned Degree = Net.degree();
  const uint64_t CycleLen = DimensionCycle.size();
  std::vector<uint32_t> Moved;
  std::vector<size_t> Landed; ///< links whose message arrived this step.

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

  // Closed-loop admission state: deferred injections retried FIFO each
  // executed step, and a per-node "already blocked this step" stamp --
  // admissions only deepen queues within a step, so one failed depth test
  // per node per step is exact, not an approximation.
  std::deque<TimedInjection> Deferred;
  std::vector<uint64_t> BlockedAt(ClosedLoopMaxQueue ? Net.numNodes() : 0,
                                  NeverStep);
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
    if (InFlightLinks != 0 || (Transmitted && !Deferred.empty()))
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
  while (Pending != 0 || InjCursor != Injections.size() || !Deferred.empty()) {
    if (Step >= MaxSteps) {
      Capped = true;
      break;
    }
    Moved.clear();
    bool Transmitted = false;
    if constexpr (Collect) {
      Events.clear();
      Events.Step = Step;
    }

    // Scheduled injections enter their queues at the start of their step,
    // before the occupancy sample, so they are visible exactly like pre-run
    // injections are at step 0. Zero-hop injections deliver on the spot.
    // Under closed loop an injection whose source node is at the queue
    // depth limit is deferred instead; deferred injections retry first
    // (they were scheduled earliest), in FIFO order.
    auto TryAdmit = [&](const TimedInjection &Inj) {
      Packet &P = Packets[Inj.Id];
      if (ClosedLoopMaxQueue && P.RouteLen != 0) {
        if (BlockedAt[P.At] == Step ||
            NodeQueueDepth(P.At) >= ClosedLoopMaxQueue) {
          BlockedAt[P.At] = Step;
          return false;
        }
      }
      if (Step != Inj.Step) {
        ++Result.DeferredInjections;
        Result.DeferredSteps += Step - Inj.Step;
      }
      if (P.RouteLen == 0) {
        P.DeliveredAt = Step;
        ++Result.Delivered;
        if constexpr (Collect)
          Events.Deliveries.push_back(Inj.Id);
        return true;
      }
      Push(queueIndex(P.At, routeHop(P, 0)), Inj.Id);
      ++Pending;
      return true;
    };
    for (size_t I = 0, E = Deferred.size(); I != E; ++I) {
      TimedInjection Inj = Deferred.front();
      Deferred.pop_front();
      if (!TryAdmit(Inj))
        Deferred.push_back(Inj);
    }
    while (InjCursor != Injections.size() &&
           Injections[InjCursor].Step <= Step) {
      const TimedInjection &Inj = Injections[InjCursor++];
      if (!TryAdmit(Inj))
        Deferred.push_back(Inj);
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

    // Phase 1: select one packet per permitted, idle link.
    auto SelectLink = [&](NodeId Node, GenIndex Link) {
      size_t Q = queueIndex(Node, Link);
      if (TestBit(Flying, Q) || !TestBit(Queued, Q))
        return false; // mid-message, or nothing to send.
      uint32_t Id = QueueHead[Q];
      Packet &P = Packets[Id];
      assert(P.At == Node && routeHop(P, P.NextHop) == Link &&
             "queue corruption");
      // The link is occupied from this step on (one step for a unit
      // packet, Flits steps for a store-and-forward message).
      ++Result.BusyLinkSteps;
      if constexpr (Collect)
        Events.Active.push_back({Node, Link, Id, P.Flits, true});
      PopFront(Q);
      Transmitted = true;
      if (P.Flits > 1) {
        // Occupy the link for Flits steps; arrival in phase 0 of step
        // Step + Flits - 1, node port free again at Step + Flits.
        Busy[Q] = {Id, Step + P.Flits - 1};
        NodeBusyUntil[Node] = Step + P.Flits;
        SetBit(Flying, Q);
        ++InFlightLinks;
        return true;
      }
      P.At = Net.next(Node, Link);
      ++P.NextHop;
      Moved.push_back(Id);
      ++Result.Transmissions;
      return true;
    };

    const GenIndex Scheduled =
        PerGen ? DimensionCycle[Step % CycleLen] : GenIndex(0);
    if constexpr (Collect) {
      Events.ScheduledLink = Scheduled;
      Events.HasScheduledLink = PerGen;
    }
    // Node by node over the nodes the sample listed (phase 0 queues
    // nothing). A node without queued packets would select nothing, so
    // order and outcome are those of a sweep over every node.
    for (NodeId Node : ActiveNodes) {
      switch (Model) {
      case CommModel::AllPort:
        for (GenIndex G = 0; G != Degree; ++G)
          SelectLink(Node, G);
        break;
      case CommModel::SinglePort:
        // A port mid-way through a multi-flit transmission transmits
        // nothing else until the occupancy ends.
        if (NodeBusyUntil[Node] > Step)
          break;
        // Round-robin over links so no queue starves.
        for (unsigned Offset = 0; Offset != Degree; ++Offset) {
          GenIndex G = (PortPointer[Node] + Offset) % Degree;
          if (SelectLink(Node, G)) {
            PortPointer[Node] = (G + 1) % Degree;
            break;
          }
        }
        break;
      case CommModel::SingleDimension:
        SelectLink(Node, Scheduled);
        break;
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
