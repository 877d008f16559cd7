//===- comm/Simulator.h - Packet-level simulator ---------------*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A packet-level network simulator over an explicit super Cayley graph,
/// implementing the paper's three communication models:
///
///   all-port          every directed link moves one packet per step
///   single-port       every node transmits on at most one link per step
///   single-dimension  all nodes use links of one generator per step (the
///                     SDC model of Section 3), cycling a dimension
///                     schedule
///
/// Packets carry fixed source routes (generator words). Two-phase step
/// execution (select transmissions, then apply), and completion,
/// utilization and per-packet delivery statistics.
///
/// Link queues are intrusive FIFOs. A packet waits in at most one link
/// queue at a time (it is queued, in flight or delivered), so each packet
/// record carries the id of the packet queued behind it, and each link
/// keeps three flat words: head id, tail id and length. Push and pop are
/// O(1) and allocate nothing; a link costs 12 bytes however deep its queue
/// gets, and constructing the simulator makes a fixed number of
/// allocations, independent of the network size.
///
/// The engine is one globally synchronous step loop that touches only
/// active work: it keeps a bitmap of non-empty link queues and one of
/// links carrying a multi-flit message, scans both in ascending id (the
/// order of a full sweep, so results do not depend on the sparsity), and
/// jumps over every step at which nothing is due -- no link in flight, no
/// queue allowed to transmit, no injection. A step costs a pass over the
/// bitmaps plus O(active links), and an idle stretch costs nothing, which
/// is what makes both saturated and sparse steady-state load sweeps
/// (comm/Workload.h) affordable.
/// Results are pinned by tests/EventCoreDifferentialTest.cpp.
///
/// Traffic can be injected up front (injectPacket) or scheduled for a
/// future step (scheduleInjection), which is how the open-loop workload
/// driver offers load at a configurable injection rate.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_COMM_SIMULATOR_H
#define SCG_COMM_SIMULATOR_H

#include "networks/Explicit.h"

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

namespace scg {

/// The communication models of Sections 3 and 4.
enum class CommModel { AllPort, SinglePort, SingleDimension };

/// Returns a display name ("all-port", ...).
std::string commModelName(CommModel Model);

/// Outcome of a simulation run.
struct SimulationResult {
  bool Completed = false; ///< all packets delivered within the step cap.
  uint64_t Steps = 0;     ///< steps executed until completion (or cap).
  uint64_t Delivered = 0; ///< packets delivered, including zero-hop packets
                          ///< injected with an empty route.
  /// Message-hops: one per (message, link) transmission regardless of the
  /// message's flit count. A 3-flit message crossing 2 links contributes 2.
  uint64_t Transmissions = 0;
  /// Link occupancy in link-steps: a FlitCount-flit message-hop holds its
  /// link for FlitCount steps and contributes all of them. This, not
  /// Transmissions, is what utilization is computed from.
  uint64_t BusyLinkSteps = 0;
  uint64_t MaxQueueLength = 0;
  double LinkUtilization = 0.0; ///< BusyLinkSteps / (links * steps).
  /// Closed-loop admission control (setClosedLoop): scheduled injections
  /// that were admitted later than their scheduled step, and the total
  /// admission delay in steps summed over them. Both zero under open loop
  /// (injections still deferred when the run ends are counted in neither).
  uint64_t DeferredInjections = 0;
  uint64_t DeferredSteps = 0;
  /// Executed steps (the ones that fire SimObserver::onStep; steps at
  /// which nothing was due are jumped over) and the start-of-step queued
  /// packet totals summed over them, so QueuedPacketSteps / ExecutedSteps
  /// is the mean occupancy over active steps.
  uint64_t ExecutedSteps = 0;
  uint64_t QueuedPacketSteps = 0;

  bool operator==(const SimulationResult &) const = default;
};

class SimObserver;
struct StepEvents;

/// The simulator. Inject packets, then run(). Optionally attach
/// SimObservers (comm/SimObserver.h) first; with none attached run()
/// executes an uninstrumented loop, so observability is free when off and
/// results are identical either way.
class NetworkSimulator {
public:
  NetworkSimulator(const ExplicitScg &Net, CommModel Model);

  const ExplicitScg &net() const { return Net; }
  CommModel model() const { return Model; }

  /// Injects a packet at \p Src that will follow \p Route hop by hop.
  /// \p FlitCount > 1 models a store-and-forward message: each link
  /// transmission occupies the link for FlitCount consecutive steps (the
  /// whole message is buffered per hop). Pipelined (cut-through/wormhole)
  /// transfers are modeled by injecting FlitCount unit packets instead.
  void injectPacket(NodeId Src, std::vector<GenIndex> Route,
                    unsigned FlitCount = 1);

  /// Schedules a packet to be injected at the start of step \p Step (so it
  /// is eligible to transmit during that step). Open-loop traffic at a
  /// configurable injection rate is built from these. Returns the packet
  /// id, which identifies the packet in StepEvents::Deliveries. Packets
  /// scheduled for the same step are injected in call order.
  uint32_t scheduleInjection(uint64_t Step, NodeId Src,
                             std::vector<GenIndex> Route,
                             unsigned FlitCount = 1);

  /// Registers \p Route once in the simulator's flat route pool and
  /// returns a handle; any number of injections can then share it via
  /// scheduleInjectionShared. On a vertex-transitive network a route is a
  /// function of the relative label only, so the batched traffic setup
  /// stores one route per distinct label here instead of one owned
  /// std::vector per packet.
  uint32_t addSharedRoute(std::span<const GenIndex> Route);

  /// scheduleInjection following the previously registered shared route
  /// \p RouteHandle (an addSharedRoute return value). Returns the packet
  /// id; ids are shared with the owned-route overload and stay contiguous
  /// in call order.
  uint32_t scheduleInjectionShared(uint64_t Step, NodeId Src,
                                   uint32_t RouteHandle,
                                   unsigned FlitCount = 1);

  /// Closed-loop admission control for scheduled injections: when
  /// \p MaxNodeQueue is nonzero, an injection is admitted at the first
  /// step >= its scheduled step at which the total queued packets across
  /// its source node's output queues is below the limit; otherwise it is
  /// deferred and retried (FIFO among deferred injections, which are
  /// always retried before that step's newly scheduled ones). Zero-hop
  /// packets occupy no queue and are never throttled. 0 (the default)
  /// restores open-loop behavior.
  void setClosedLoop(uint64_t MaxNodeQueue) {
    ClosedLoopMaxQueue = MaxNodeQueue;
  }

  /// For the single-dimension model: the generator used at step t is
  /// Cycle[t % Cycle.size()]. Defaults to cycling all generators in order.
  void setDimensionCycle(std::vector<GenIndex> Cycle);

  /// Attaches a step observer (non-owning; must outlive run()). Observers
  /// fire in attachment order at the end of every executed step. Steps at
  /// which nothing is due are jumped over and fire no onStep (there is
  /// nothing to report: no link is busy, no packet moves, queue contents
  /// are unchanged).
  void addObserver(SimObserver *Observer);

  /// Runs until every packet (including scheduled injections) is delivered
  /// or \p MaxSteps elapse.
  SimulationResult run(uint64_t MaxSteps);

  /// deliveryStep() of a packet still undelivered (or never run).
  static constexpr uint64_t NotDelivered = ~uint64_t(0);

  /// The step at which packet \p Id was delivered, NotDelivered if it was
  /// not. A zero-hop packet injected with injectPacket is delivered before
  /// the run and reads 0; every other delivery is the step whose
  /// StepEvents::Deliveries lists the packet.
  uint64_t deliveryStep(uint32_t Id) const {
    assert(Id < Packets.size() && "unknown packet id");
    return Packets[Id].DeliveredAt;
  }

private:
  static constexpr uint32_t NoPacket = ~uint32_t(0);

  /// Packets hold views into RoutePool (begin + length) instead of owned
  /// vectors: shared routes are registered once and referenced by every
  /// packet on the same relative label, and per-packet state is a flat
  /// 32-byte record with no heap indirection on the hot path.
  struct Packet {
    NodeId At;
    uint32_t NextHop;
    unsigned Flits;
    uint32_t RouteBegin; ///< first hop's index in RoutePool.
    uint32_t RouteLen;   ///< number of hops.
    /// The packet queued behind this one on its current link (meaningful
    /// only while queued and not the tail).
    uint32_t NextInQueue = NoPacket;
    uint64_t DeliveredAt = NotDelivered;
  };

  /// In-flight multi-flit transmission on one link: message Id arrives in
  /// phase 0 of DoneStep.
  struct InFlight {
    uint32_t Id = 0;
    uint64_t DoneStep = 0;
  };

  /// A scheduled future injection: Packets[Id] enters its first queue at
  /// the start of step Step.
  struct TimedInjection {
    uint64_t Step;
    uint32_t Id;
  };

  /// Queue index of (node, link).
  size_t queueIndex(NodeId Node, GenIndex Link) const {
    return size_t(Node) * Net.degree() + Link;
  }

  /// The step loop. Instantiated twice: Collect = false is the pristine
  /// hot loop (no event collection, no hook checks, selected whenever no
  /// observer is attached); Collect = true adds the observer machinery.
  /// run() dispatches once on entry, so zero-overhead observability is
  /// structural.
  template <bool Collect> SimulationResult runImpl(uint64_t MaxSteps);

  /// Appends \p Route to RoutePool and returns (begin, length).
  std::pair<uint32_t, uint32_t> appendRoute(std::span<const GenIndex> Route);

  /// Appends packet \p Id to the tail of link queue \p Q.
  void pushQueue(size_t Q, uint32_t Id) {
    if (QueueLen[Q]++ == 0)
      QueueHead[Q] = Id;
    else
      Packets[QueueTail[Q]].NextInQueue = Id;
    QueueTail[Q] = Id;
  }

  /// Removes the head of the non-empty link queue \p Q.
  void popQueue(size_t Q) {
    uint32_t Id = QueueHead[Q];
    if (--QueueLen[Q] != 0)
      QueueHead[Q] = Packets[Id].NextInQueue;
  }

  /// Hop \p Hop of packet \p P.
  GenIndex routeHop(const Packet &P, uint32_t Hop) const {
    return RoutePool[size_t(P.RouteBegin) + Hop];
  }

  const ExplicitScg &Net;
  CommModel Model;
  uint64_t ClosedLoopMaxQueue = 0; ///< 0 = open loop (no admission control).
  std::vector<GenIndex> RoutePool; ///< every route, flat; packets index in.
  /// Shared routes by handle: (begin, length) into RoutePool.
  std::vector<std::pair<uint32_t, uint32_t>> SharedRoutes;
  std::vector<Packet> Packets;
  /// The per-link FIFOs, indexed by queueIndex: first and last packet id
  /// and packet count. Head and tail are stale while the length is 0.
  std::vector<uint32_t> QueueHead;
  std::vector<uint32_t> QueueTail;
  std::vector<uint32_t> QueueLen;
  std::vector<InFlight> Busy; ///< per-link multi-flit transmission state.
  std::vector<TimedInjection> Injections; ///< future injections, by Step.
  std::vector<GenIndex> DimensionCycle;
  std::vector<GenIndex> PortPointer; ///< round-robin state per node.
  /// Single-port rule for store-and-forward messages: a node whose port is
  /// mid-way through a multi-flit transmission may not start another until
  /// the occupancy ends. NodeBusyUntil[u] is the first step u is free
  /// again (selection step + FlitCount); 0 = never busy. Maintained for
  /// every model, consulted only under CommModel::SinglePort.
  std::vector<uint64_t> NodeBusyUntil;
  uint64_t Pending = 0; ///< injected, undelivered: queued or in flight.
  uint64_t DeliveredAtInject = 0; ///< zero-hop packets, delivered on inject.
  std::vector<SimObserver *> Observers;
};

} // namespace scg

#endif // SCG_COMM_SIMULATOR_H
