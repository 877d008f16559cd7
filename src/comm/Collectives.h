//===- comm/Collectives.h - Broadcast, scatter, gather ---------*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The remaining prototype communication tasks of the [4]/[10] taxonomy
/// the paper draws MNB/TE from: single-node broadcast (one source to all),
/// scatter (one source, personalized packets to all) and its converse
/// gather, and all-reduce (gather + broadcast). Each runs on the
/// translation-invariant BFS tree over the packet simulator and is
/// reported against its universal lower bound:
///
///   broadcast  >= tree height (= diameter, all-port) / ceil(log) rounds
///   scatter    >= ceil((N-1)/degree)   (source's send capacity)
///   gather     >= ceil((N-1)/degree)   (sink's receive capacity)
///
//===----------------------------------------------------------------------===//

#ifndef SCG_COMM_COLLECTIVES_H
#define SCG_COMM_COLLECTIVES_H

#include "comm/BroadcastTree.h"
#include "comm/Simulator.h"

namespace scg {

/// Outcome of a collective run.
struct CollectiveResult {
  uint64_t Steps = 0;
  uint64_t LowerBound = 0;
  double Ratio = 0.0;
};

/// Broadcast from node 0 along \p Tree under \p Model. Under the all-port
/// model a node forwards to all children in one step, so completion is
/// exactly the tree height. Throws std::invalid_argument under
/// CommModel::SingleDimension (simulateMnbSdc is the SDC collective).
CollectiveResult simulateBroadcast(const ExplicitScg &Net,
                                   const BroadcastTree &Tree,
                                   CommModel Model = CommModel::AllPort);

/// Scatter from node 0: one personalized packet per destination, routed
/// along the tree paths.
CollectiveResult simulateScatter(const ExplicitScg &Net,
                                 const BroadcastTree &Tree,
                                 CommModel Model = CommModel::AllPort);

/// Gather to node 0: every node sends one packet to the root along the
/// reversed tree path. Requires an undirected network (reverse links);
/// throws std::invalid_argument on a directed one.
CollectiveResult simulateGather(const ExplicitScg &Net,
                                const BroadcastTree &Tree,
                                CommModel Model = CommModel::AllPort);

/// All-reduce as gather-then-broadcast (the reduction value must reach
/// the root before redistribution, so the phases are sequential); steps
/// and bounds are the sums of the two phases. Throws
/// std::invalid_argument where either phase does.
CollectiveResult simulateAllReduce(const ExplicitScg &Net,
                                   const BroadcastTree &Tree,
                                   CommModel Model = CommModel::AllPort);

} // namespace scg

#endif // SCG_COMM_COLLECTIVES_H
