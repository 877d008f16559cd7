//===- graph/Faults.h - Fault injection and robustness ---------*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fault injection for robustness studies: the paper leans on the
/// transposition network's reputation as a "fault-tolerant robust
/// network" [12], and Cayley-graph regularity gives all the classes here
/// nontrivial connectivity. This module removes links/nodes from an
/// explicit graph and measures what survives: connectivity of the healthy
/// part, diameter inflation, and exhaustive or sampled sweeps over all
/// single-fault scenarios.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_GRAPH_FAULTS_H
#define SCG_GRAPH_FAULTS_H

#include "graph/Graph.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace scg {

/// A set of failed components. Node faults kill all incident links.
///
/// Storage is a pair of sorted vectors, not std::set: linkFailed runs once
/// per directed edge per scenario in exhaustive single-fault sweeps, and a
/// branchless binary search over a flat array beats pointer-chasing a
/// red-black tree there by a measurable constant factor. Mutation appends
/// and marks the vector dirty; the first query after a mutation
/// sort+uniques it (queries on an already-sorted set pay nothing). Build
/// and query phases must not interleave across threads -- the sweeps give
/// every scenario its own FaultSet, so they never do.
class FaultSet {
public:
  /// Fails the directed link From -> To.
  void failDirectedLink(NodeId From, NodeId To) {
    Links.push_back({From, To});
    LinksSorted = false;
  }

  /// Fails both directions of {A, B}.
  void failLink(NodeId A, NodeId B) {
    failDirectedLink(A, B);
    failDirectedLink(B, A);
  }

  /// Fails a node (its links in both directions).
  void failNode(NodeId Node) {
    Nodes.push_back(Node);
    NodesSorted = false;
  }

  bool linkFailed(NodeId From, NodeId To) const {
    if (nodeFailed(From) || nodeFailed(To))
      return true;
    if (Links.empty())
      return false;
    ensureLinksSorted();
    return std::binary_search(Links.begin(), Links.end(),
                              std::pair<NodeId, NodeId>{From, To});
  }

  bool nodeFailed(NodeId Node) const {
    if (Nodes.empty())
      return false;
    ensureNodesSorted();
    return std::binary_search(Nodes.begin(), Nodes.end(), Node);
  }

  /// Distinct failed nodes (duplicates collapse, matching the historical
  /// std::set semantics).
  size_t numFailedNodes() const {
    ensureNodesSorted();
    return Nodes.size();
  }

  /// Distinct failed *undirected* links: the number of unordered pairs
  /// {A, B} with at least one failed direction, so one failLink(A, B)
  /// counts as exactly one fault. (An old version returned the directed
  /// entry count, silently doubling every undirected fault; callers that
  /// really want directed entries use numFailedDirectedLinks().) Does not
  /// count links implied by node faults.
  size_t numFailedLinks() const {
    ensureLinksSorted();
    size_t Count = 0;
    for (const auto &[From, To] : Links)
      // Count each unordered pair once: at its From < To entry, or at the
      // From > To entry when the mirror direction is absent.
      if (From < To ||
          !std::binary_search(Links.begin(), Links.end(),
                              std::pair<NodeId, NodeId>{To, From}))
        ++Count;
    return Count;
  }

  /// Distinct failed directed links (both directions of a failLink count).
  size_t numFailedDirectedLinks() const {
    ensureLinksSorted();
    return Links.size();
  }

  /// True if every failed node and every endpoint of a failed link is
  /// below \p NumNodes, i.e. names a node of a graph that size.
  /// O(|faults|).
  bool idsBelow(NodeId NumNodes) const {
    for (NodeId Node : Nodes)
      if (Node >= NumNodes)
        return false;
    for (const auto &[From, To] : Links)
      if (From >= NumNodes || To >= NumNodes)
        return false;
    return true;
  }

private:
  void ensureLinksSorted() const {
    if (LinksSorted)
      return;
    std::sort(Links.begin(), Links.end());
    Links.erase(std::unique(Links.begin(), Links.end()), Links.end());
    LinksSorted = true;
  }
  void ensureNodesSorted() const {
    if (NodesSorted)
      return;
    std::sort(Nodes.begin(), Nodes.end());
    Nodes.erase(std::unique(Nodes.begin(), Nodes.end()), Nodes.end());
    NodesSorted = true;
  }

  mutable std::vector<std::pair<NodeId, NodeId>> Links;
  mutable std::vector<NodeId> Nodes;
  mutable bool LinksSorted = true;
  mutable bool NodesSorted = true;
};

/// Health of the surviving network: connectivity and distances among the
/// healthy nodes.
struct FaultAnalysis {
  bool Connected = false;   ///< all healthy nodes mutually reachable.
  uint32_t Diameter = 0;    ///< over healthy pairs; meaningless if not
                            ///< connected.
  uint64_t HealthyNodes = 0;
};

/// Analyzes \p G under \p Faults: healthy sources run 64 at a time through
/// the bit-parallel multi-source BFS (graph/MsBfs.h) over the surviving
/// network, with a sink that counts each (node, level) visit by popcount.
/// Batches run serially, since the analysis is one scenario of a parallel
/// sweep. The first batch whose visits fall short of HealthyNodes per lane
/// ends the analysis. Disconnected results carry Diameter == 0 (never a
/// partial accumulation). Throws std::invalid_argument, in every build,
/// when \p Faults names a node id >= G.numNodes().
FaultAnalysis analyzeUnderFaults(const Graph &G, const FaultSet &Faults);

/// Pairwise reachability of the surviving network -- the per-trial
/// measurement of the Monte Carlo campaigns (routing/FaultCampaign.h).
/// Unlike analyzeUnderFaults, a disconnected scenario still reports how
/// much of the network each healthy node can see, which is what
/// reliability/reachability curves integrate. How it gets there depends on
/// the survivors: when every surviving arc has its reverse (an undirected
/// family under node or link faults), reachability is symmetric, so once
/// the first batch falls short the pairs are counted from the component
/// sizes, sum s_c * (s_c - 1), in one O(V + E) labelling pass. Otherwise
/// (rotators, one-way arc faults) every batch runs. Either way the integers
/// are the ones the per-lane visit count gives.
struct ReachabilityAnalysis {
  uint64_t HealthyNodes = 0;
  /// Ordered healthy pairs (S, T), S != T, with a surviving S -> T path.
  uint64_t ReachableOrderedPairs = 0;
  bool Connected = false; ///< every healthy ordered pair reachable.
  uint32_t Diameter = 0;  ///< over healthy pairs; 0 when not connected.
};

/// Reachability of \p G under \p Faults, with the same counting batches as
/// analyzeUnderFaults and the components shortcut above. Throws
/// std::invalid_argument, in every build, when \p Faults names a node id
/// >= G.numNodes().
ReachabilityAnalysis analyzeReachabilityUnderFaults(const Graph &G,
                                                    const FaultSet &Faults);

/// Worst case over single-fault scenarios. A sweep with zero scenarios
/// (edgeless graph, empty graph) reports AlwaysConnected = false: "no
/// scenario disconnected" must never read as a robustness certificate
/// when nothing was tried (check ScenariosTried to distinguish the cases).
struct SingleFaultSweep {
  bool AlwaysConnected = false;
  uint32_t WorstDiameter = 0;
  uint32_t FaultFreeDiameter = 0;
  uint64_t ScenariosTried = 0;
};

/// Removes every \p Stride-th undirected link in turn (Stride 1 =
/// exhaustive) and reports the worst outcome. \p G must be undirected.
/// Scenarios are evaluated in parallel on the global ThreadPool; results
/// are byte-identical at every thread count (SCG_THREADS=1 forces serial).
SingleFaultSweep sweepSingleLinkFaults(const Graph &G, unsigned Stride = 1);

/// Removes every \p Stride-th node in turn and reports the worst outcome
/// among the survivors. Parallel over scenarios like the link sweep.
SingleFaultSweep sweepSingleNodeFaults(const Graph &G, unsigned Stride = 1);

} // namespace scg

#endif // SCG_GRAPH_FAULTS_H
