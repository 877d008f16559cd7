//===- comm/Mnb.h - Multinode broadcast (Corollary 2) ----------*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multinode broadcast task: every node broadcasts one packet to every
/// other node. Executed over the translation-invariant BFS broadcast tree
/// under the all-port model (DESIGN.md substitution 1 for the strictly
/// optimal schedules of [8]/[15]); completion time is reported against the
/// receive-bound lower bound ceil((N-1)/degree) that the paper's optimality
/// argument uses, so Corollary 2's Theta claims show up as bounded ratios.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_COMM_MNB_H
#define SCG_COMM_MNB_H

#include "comm/BroadcastTree.h"

namespace scg {

/// Result of a multinode-broadcast simulation.
struct MnbResult {
  uint64_t Steps = 0;        ///< completion time (all-port).
  uint64_t Deliveries = 0;   ///< N * (N - 1) on success.
  uint64_t LowerBound = 0;   ///< ceil((N-1) / degree).
  double Ratio = 0.0;        ///< Steps / LowerBound.
  double LinkUtilization = 0.0;
};

/// Simulates the MNB on \p Net under the all-port model, every node
/// broadcasting along the shared relative tree \p Tree.
MnbResult simulateMnb(const ExplicitScg &Net, const BroadcastTree &Tree);

/// Simulates the MNB under the single-dimension communication model of
/// Section 3: at step t only the links of generator Cycle[t % size] fire
/// (all generators round-robin when \p Cycle is empty). The lower bound
/// becomes N-1 (one in-link per node per step); [15]'s strictly optimal
/// star algorithm achieves k!-1, and this tree-based schedule lands within
/// a small constant of it (DESIGN.md substitution 1). Throws
/// std::invalid_argument if \p Cycle names a generator >= degree or omits
/// one that labels a tree edge (those tokens would never move).
MnbResult simulateMnbSdc(const ExplicitScg &Net, const BroadcastTree &Tree,
                         std::vector<GenIndex> Cycle = {});

/// Simulates the MNB with sources striped across several rotated trees
/// (source s broadcasts along Trees[s mod Trees.size()]) under the
/// all-port model: the multi-spanning-tree load-balancing idea behind the
/// optimal algorithms of [8]. With diverse trees the per-link load
/// flattens and the completion ratio drops toward 1; with one tree this
/// is simulateMnb. Throws std::invalid_argument if \p Trees is empty.
MnbResult simulateMnbStriped(const ExplicitScg &Net,
                             const std::vector<BroadcastTree> &Trees);

/// The receive-bound lower bound for an N-node degree-d network.
uint64_t mnbLowerBound(uint64_t NumNodes, unsigned Degree);

/// The SDC receive-bound: N - 1.
uint64_t mnbSdcLowerBound(uint64_t NumNodes);

} // namespace scg

#endif // SCG_COMM_MNB_H
