//===- comm/PermutationRouting.h - Permutation traffic ---------*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Permutation routing: every node u sends one packet to pi(u) for a
/// permutation pi of the nodes -- the canonical "hard" unicast pattern
/// between the single-packet case and the total exchange of Corollary 3.
/// Routes are the lifted optimal star routes of Theorems 1-3, served by the
/// QueryEngine; completion is reported against max(dilation-bound,
/// per-link-load) lower bounds.
/// Includes the two named patterns used in the benches: a pseudo-random
/// permutation and the "reversal" pattern u -> complement-rank(u), plus
/// translation traffic u -> u o g (which Cayley symmetry routes with
/// perfectly uniform load -- the "traffic ... is uniform within a
/// constant factor" remark at the end of Section 1).
///
//===----------------------------------------------------------------------===//

#ifndef SCG_COMM_PERMUTATIONROUTING_H
#define SCG_COMM_PERMUTATIONROUTING_H

#include "comm/Simulator.h"

namespace scg {

/// Destination map over node ids: Dest[u] is u's target (a permutation of
/// 0..N-1).
using TrafficPattern = std::vector<NodeId>;

/// Pseudo-random permutation of the nodes of \p Net.
TrafficPattern randomTraffic(const ExplicitScg &Net, uint64_t Seed);

/// Rank-reversal pattern: u -> N-1-u.
TrafficPattern reversalTraffic(const ExplicitScg &Net);

/// Translation pattern: u -> (label of u) composed with \p G's action.
TrafficPattern translationTraffic(const ExplicitScg &Net, GenIndex G);

/// Result of routing one traffic pattern.
struct PermutationRoutingResult {
  uint64_t Steps = 0;
  uint64_t LowerBound = 0; ///< max(longest route, max per-link load).
  double Ratio = 0.0;
  double AverageRouteLength = 0.0;
  uint64_t MaxLinkLoad = 0;
};

class SimObserver;

/// Routes \p Pattern on \p Net under \p Model via the QueryEngine's
/// table-free routes (lifted star routes on the SCG hosts). Throws
/// std::invalid_argument when the host has none
/// (!QueryEngine::supportsTableFree), when \p Pattern does not have one
/// entry per node, or when an entry is not a node id. Any \p Observers are
/// attached to the underlying NetworkSimulator for the run (results are
/// unaffected; see comm/SimObserver.h).
PermutationRoutingResult
simulatePermutationRouting(const ExplicitScg &Net,
                           const TrafficPattern &Pattern,
                           CommModel Model = CommModel::AllPort,
                           const std::vector<SimObserver *> &Observers = {});

} // namespace scg

#endif // SCG_COMM_PERMUTATIONROUTING_H
