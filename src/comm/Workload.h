//===- comm/Workload.h - Synthetic traffic workloads -----------*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Synthetic steady-state traffic for the network simulator: the standard
/// interconnect-evaluation workloads (uniform random, hotspot, transpose,
/// bit-reversal, bursty on/off arrivals), generated as timed injection
/// events at a configurable per-node injection rate, plus the open-loop
/// driver simulateTrafficLoad() that offers a workload to a network and
/// reports delivered throughput, latency percentiles, and queue occupancy.
/// This is the methodology behind the saturation curves in
/// BENCH_traffic.json (throughput-vs-offered-load and latency-vs-load per
/// family x model); the paper itself only evaluates one-shot permutation
/// traffic, so this is the repo's extension to "heavy traffic".
///
/// All generators are seeded and deterministic: one SplitMix64 stream per
/// source node (derived from the spec seed), each advanced step by step,
/// so a trace is a pure function of (network, spec, horizon) on every
/// platform and thread count.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_COMM_WORKLOAD_H
#define SCG_COMM_WORKLOAD_H

#include "comm/Simulator.h"

namespace scg {

class MetricsRegistry;
class SimObserver;

/// The synthetic traffic patterns.
enum class WorkloadKind {
  UniformRandom, ///< destination uniform over the other nodes.
  Hotspot,       ///< a configured fraction targets one hot node.
  Transpose,     ///< u -> rank of label(u)^-1 (the permutation-matrix
                 ///< transpose; an involution, fixed points allowed).
  BitReversal,   ///< u -> reverse of u's rank bits (mod node count).
  BurstyUniform, ///< uniform destinations, on/off (Markov) arrivals.
};

/// Parameters of a workload. InjectionRate is the per-node packet
/// injection probability per step (offered load in packets/node/step);
/// under BurstyUniform it is still the *long-run* rate -- bursts inject at
/// rate InjectionRate / BurstDutyCycle while on.
struct WorkloadSpec {
  WorkloadKind Kind = WorkloadKind::UniformRandom;
  double InjectionRate = 0.01;
  uint64_t Seed = 0;
  double HotspotFraction = 0.5;  ///< Hotspot: fraction aimed at the hot node.
  NodeId HotspotNode = 0;        ///< Hotspot: the hot node.
  double BurstDutyCycle = 0.25;  ///< BurstyUniform: long-run fraction on.
  double MeanBurstLength = 8.0;  ///< BurstyUniform: mean on-period steps.
  unsigned FlitCount = 1;        ///< flits per injected message.
};

/// Deterministic generator of TrafficEvent traces.
class WorkloadGenerator {
public:
  /// Throws std::invalid_argument on a malformed \p Spec: a negative or
  /// NaN InjectionRate, a Hotspot HotspotNode that is not a node, or, for
  /// BurstyUniform, a BurstDutyCycle outside (0, 1] or a MeanBurstLength
  /// below 1 or NaN.
  WorkloadGenerator(const ExplicitScg &Net, const WorkloadSpec &Spec);

  /// Generates the trace for steps [0, Steps), sorted by (Step, Src).
  /// Runs in two passes over node chunks on the global ThreadPool: a
  /// count pass sizes each (step, chunk) run of events, a prefix sum
  /// places the runs, and a write pass replays the same per-node streams
  /// and writes every event at its final index. Chunk boundaries depend
  /// on the node count only, so the trace is the same at every thread
  /// count. Besides the trace it keeps one counter per (step, chunk).
  std::vector<TrafficEvent> generate(uint64_t Steps) const;

  /// The closed-form transpose destination of \p U (exposed for tests).
  static NodeId transposeDestination(const ExplicitScg &Net, NodeId U);

  /// The closed-form bit-reversal destination of \p U among \p Count nodes
  /// (reverse the low bit_width(Count-1) bits, then reduce mod Count).
  static NodeId bitReversalDestination(NodeId U, NodeId Count);

private:
  const ExplicitScg &Net;
  WorkloadSpec Spec;
  std::vector<NodeId> FixedDest; ///< per-source map (transpose/bit-reversal).
};

/// Options of the traffic driver.
struct TrafficLoadOptions {
  MetricsRegistry *Registry = nullptr; ///< optional traffic.* metrics sink.
  std::vector<SimObserver *> Observers; ///< extra observers to attach.
  /// Nonzero makes the source closed-loop: an injection whose source node
  /// already has this many packets queued is deferred until the depth
  /// drops (see NetworkSimulator::setClosedLoop). Zero is open-loop.
  uint64_t ClosedLoopMaxQueue = 0;
};

/// What simulateTrafficLoad measured. Latency of a delivered packet is
/// (delivery step - injection step + 1), i.e. a 1-hop packet that transmits
/// in its injection step has latency 1; zero-hop packets (transpose fixed
/// points) have latency 0. Latency statistics are over delivered packets
/// only -- packets still queued at the horizon are counted in Offered but
/// not Delivered, which is what makes the driver open-loop.
struct TrafficLoadResult {
  SimulationResult Sim;
  uint64_t Offered = 0;       ///< messages injected over the horizon.
  double OfferedRate = 0.0;   ///< Offered / (nodes * steps).
  double DeliveredRate = 0.0; ///< Sim.Delivered / (nodes * steps).
  double MeanHops = 0.0;      ///< mean route length of delivered packets.
  double MeanLatency = 0.0;
  uint64_t P50Latency = 0;
  uint64_t P99Latency = 0;
  /// Mean start-of-step queued packets over the executed steps
  /// (Sim.QueuedPacketSteps / Sim.ExecutedSteps).
  double MeanQueued = 0.0;
  /// Setup telemetry. DistinctLabels and DedupFactor are deterministic
  /// (pure functions of the trace); SetupSeconds is wall-clock time of the
  /// route-setup phase and is the ONLY field excluded from the
  /// determinism contract.
  uint64_t DistinctLabels = 0; ///< distinct relative labels routed.
  double DedupFactor = 0.0;    ///< Offered / DistinctLabels (0 if none).
  double SetupSeconds = 0.0;   ///< wall-clock route-setup time.

  bool operator==(const TrafficLoadResult &) const = default;
};

/// Offers \p Spec traffic to \p Net under \p Model for \p Steps steps
/// (routes are the lifted optimal star routes, as in permutation routing)
/// and reports what was delivered. Route setup ranks every event's
/// relative label on the global ThreadPool, dedupes the ranks in
/// first-seen order (Cayley symmetry: at most numNodes distinct),
/// computes one route per label via QueryEngine::routeBatchRelative, and
/// schedules the whole trace with one
/// NetworkSimulator::scheduleRoutedInjections call, so every injection
/// shares its label's route in the simulator's flat route pool.
/// Deterministic for fixed inputs, including across thread counts.
///
/// Routes are computed table-free, so \p Net must be of a family
/// QueryEngine::supportsTableFree accepts; on any other (MR, RR and
/// complete-RR) the call throws std::invalid_argument naming the family,
/// in every build, before generating any traffic.
TrafficLoadResult simulateTrafficLoad(const ExplicitScg &Net, CommModel Model,
                                      const WorkloadSpec &Spec,
                                      uint64_t Steps,
                                      const TrafficLoadOptions &Options = {});

} // namespace scg

#endif // SCG_COMM_WORKLOAD_H
