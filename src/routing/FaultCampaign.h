//===- routing/FaultCampaign.h - Monte Carlo reliability campaigns -*-C++-*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Monte Carlo fault campaigns: sample random link (or node) fault sets at
/// a ladder of fault rates, measure what survives, and drive the adaptive
/// container router through the wreckage. Produces the
/// reliability/reachability/diameter-inflation curves of BENCH_faults.json
/// (bench/bench_faults.cpp) -- the quantitative version of the paper's
/// qualitative "fault-tolerant robust network" claim.
///
/// Sampling uses common random numbers (coupling): trial t draws one
/// SplitMix64 value per link, fixed order, and at rate r fails exactly the
/// links whose draw falls below r * 2^64. The *same* draws serve every
/// rate, so a trial's fault sets are nested along the rate ladder and
/// every survival metric is monotone in the rate per trial -- a structural
/// invariant the tests check, and a big variance reduction for the curves.
///
/// Trials run in parallel on the global ThreadPool via the chunk-ordered
/// parallelMapReduce, so a campaign is byte-identical at every thread
/// count (SCG_THREADS=1 forces serial); tests pin this.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_ROUTING_FAULTCAMPAIGN_H
#define SCG_ROUTING_FAULTCAMPAIGN_H

#include "routing/FaultRouter.h"

#include <string>
#include <vector>

namespace scg {

struct FaultCampaignOptions {
  /// Fault-rate ladder (each in [0, 1]); curves get one point per rate.
  std::vector<double> Rates = {0.01, 0.02, 0.05, 0.10, 0.20};
  /// Monte Carlo trials per rate (coupled across rates, see file comment).
  unsigned Trials = 256;
  uint64_t Seed = 0x5C6FA171ULL;
  /// Fail nodes instead of links (a node takes all its links down).
  bool NodeFaults = false;
  /// Distinct (src, dst) pairs whose containers are built fault-free once
  /// and routed in every trial; 0 disables the routing leg.
  unsigned RouterPairs = 8;
};

/// One point of the reliability curves: all means are over the trials at
/// this rate (or the stated subset).
struct FaultRatePoint {
  double Rate = 0.0;
  uint64_t Trials = 0;
  /// Mean injected faults per trial (links or nodes, per NodeFaults).
  double MeanFaultsInjected = 0.0;
  uint64_t ConnectedTrials = 0;
  double ConnectedFraction = 0.0; ///< survivors mutually connected.
  /// Mean over trials of (reachable ordered healthy pairs) / (all ordered
  /// healthy pairs); 1.0 for a trial with <= 1 healthy node left... except
  /// 0 healthy, which scores 0.
  double MeanReachability = 0.0;
  /// Mean of Diameter / fault-free diameter over *connected* trials
  /// (0 when none connected).
  double MeanDiameterInflation = 0.0;
  uint32_t WorstDiameter = 0; ///< max over connected trials.
  /// Adaptive-router outcomes over the sampled pairs, all trials pooled.
  /// A route is attempted unless an endpoint node has failed.
  uint64_t RoutesAttempted = 0;
  uint64_t RoutesDelivered = 0;
  double DeliveryFraction = 0.0; ///< delivered / attempted (0 if none).
  /// Mean of (hops traversed - fault-free hops) over delivered routes:
  /// the price of failover, in hops.
  double MeanHopOverhead = 0.0;
  double MeanPathsTried = 0.0; ///< over attempted routes.
};

struct FaultCampaignResult {
  std::string Network;
  uint64_t Nodes = 0;
  /// Faultable components: undirected links, directed arcs (for the
  /// rotator-style classes, which fail per arc), or nodes, per options.
  uint64_t Components = 0;
  uint32_t FaultFreeDiameter = 0;
  /// Container stats over the sampled router pairs (fault-free build).
  double MeanContainerWidth = 0.0;
  uint64_t StarGeneratorContainers = 0; ///< built graph-free.
  uint64_t MaxFlowContainers = 0;
  std::vector<FaultRatePoint> Points;
};

/// Runs the campaign described by \p Opts against \p Net. Deterministic
/// for a fixed (network, options) at every thread count. Throws
/// std::invalid_argument, in every build, when a rate in \p Opts.Rates is
/// NaN or outside [0, 1].
FaultCampaignResult runFaultCampaign(const ExplicitScg &Net,
                                     const FaultCampaignOptions &Opts);

} // namespace scg

#endif // SCG_ROUTING_FAULTCAMPAIGN_H
