//===- comm/TotalExchange.h - Total exchange (Corollary 3) -----*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The total exchange task: every node sends a distinct packet to every
/// other node. Packets are source-routed by the QueryEngine (optimal star
/// routes, lifted through the emulation templates on super Cayley graph
/// hosts) and run under the all-port model; completion time is reported
/// against the bandwidth lower bound ceil(N * avgDistance / degree) from
/// the proof of Corollary 3.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_COMM_TOTALEXCHANGE_H
#define SCG_COMM_TOTALEXCHANGE_H

#include "comm/Simulator.h"

namespace scg {

/// Result of a total-exchange simulation.
struct TeResult {
  uint64_t Steps = 0;
  uint64_t Packets = 0;     ///< N * (N - 1).
  uint64_t LowerBound = 0;  ///< ceil(sum of all distances / (N * degree)).
  double Ratio = 0.0;
  double LinkUtilization = 0.0;
  double AverageRouteLength = 0.0;
};

/// Simulates the TE on \p Net under \p Model. Routes are the QueryEngine's
/// table-free routes: the optimal star route lifted through the host's
/// emulation templates (plain star routes on the star graph itself).
/// Throws std::invalid_argument when the host has none
/// (!QueryEngine::supportsTableFree). N <= 720 is asserted (the task is
/// quadratic in N).
TeResult simulateTotalExchange(const ExplicitScg &Net,
                               CommModel Model = CommModel::AllPort);

/// The bandwidth lower bound: total packet-hops over link capacity.
uint64_t teLowerBound(const ExplicitScg &Net);

} // namespace scg

#endif // SCG_COMM_TOTALEXCHANGE_H
