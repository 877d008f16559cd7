//===- routing/FaultRouter.h - Containers + fault-tolerant routing -*-C++-*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fault-tolerant routing through node-disjoint path containers. The
/// paper inherits the transposition network's "fault-tolerant robust
/// network" pitch [12]; this module makes it operational: a container of
/// internally node-disjoint parallel paths between a pair survives any
/// fault set that leaves one path intact, and an adaptive router that
/// fails over across the container delivers exactly as long as that holds.
///
/// Two constructions feed the containers:
///
///  * Generator-based (star family, graph-free): by vertex-transitivity a
///    route from Src is a word over the generators, so the k-1 paths leave
///    Src through its k-1 distinct first generators and then steer to Dst
///    by deterministic best-first search whose heuristic is the *exact*
///    closed-form star distance (routing/StarRouter.h). With nothing in
///    the way the search walks the greedy route straight down (the
///    heuristic never misleads); already-claimed nodes of earlier paths
///    are avoided, which is what makes the paths internally disjoint by
///    construction. No adjacency is ever materialized -- containers at
///    k = 12 (479M nodes) cost microseconds and O(k * d) memory.
///
///  * Max-flow (every family, explicit graph): graph/Containers.h's
///    unit-vertex-capacity augmenting-path construction, exact on all ten
///    classes (directed included) and the differential oracle the star
///    construction is cross-validated against in tests.
///
/// The adaptive router walks the shortest container path greedily, probes
/// each next hop against a FaultSet (link or node failures), and on the
/// first dead hop backtracks to the source and tries the next surviving
/// path -- the classic source-adaptive failover discipline. It reports
/// traversed hops including backtracking, so the hop-count overhead of
/// fault tolerance vs the fault-free route is a measurement, not a guess.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_ROUTING_FAULTROUTER_H
#define SCG_ROUTING_FAULTROUTER_H

#include "graph/Containers.h"
#include "graph/Faults.h"
#include "networks/Explicit.h"

#include <vector>

namespace scg {

/// A container between two labels of the star graph, graph-free form:
/// each path is the full label sequence Src, ..., Dst.
struct StarContainer {
  std::vector<std::vector<Permutation>> Paths;
  /// True when all k-1 paths were built (the star graph is
  /// (k-1)-connected, so a maximum container always exists; the
  /// deterministic search can in principle paint itself into a corner, in
  /// which case callers fall back to max flow -- no sampled pair at
  /// k <= 6 does, which tests pin).
  bool Complete = false;
};

/// Builds the generator-based container between \p Src and \p Dst in the
/// star graph on their symbols: k-1 internally node-disjoint paths, one
/// per first generator, each of length at most d(Src, Dst) + 8. Purely
/// label-space -- no graph, no tables. Requires Src != Dst.
StarContainer buildStarContainer(const Permutation &Src,
                                 const Permutation &Dst);

/// A container in NodeId space, ready to route against a FaultSet.
struct PathContainer {
  NodeId Src = 0, Dst = 0;
  /// Internally node-disjoint paths, each Src..Dst, sorted shortest
  /// first; Paths[0] is a fault-free shortest route.
  std::vector<std::vector<NodeId>> Paths;
  enum class Method {
    StarGenerator, ///< graph-free generator construction.
    MaxFlow        ///< unit-capacity augmenting paths on the graph.
  };
  Method Construction = Method::MaxFlow;

  unsigned width() const { return unsigned(Paths.size()); }
  /// Hops of the shortest (fault-free) route.
  unsigned shortestLength() const {
    return Paths.empty() ? 0 : unsigned(Paths.front().size() - 1);
  }
};

/// Outcome of one adaptive routing attempt under faults.
struct FaultRouteResult {
  bool Delivered = false;
  /// Hops actually traversed: every failed attempt costs the hops walked
  /// to the dead link and the same hops back to the source, then the
  /// delivered path costs its length.
  unsigned HopsTraversed = 0;
  unsigned RouteLength = 0;  ///< hops of the delivering path (0 if none).
  unsigned FaultFreeHops = 0; ///< container's shortest-path length.
  unsigned PathsTried = 0;
};

/// Container construction + adaptive failover routing over one
/// materialized network. Construction dispatches per family: the star
/// graph gets the generator-based build (max-flow fallback if incomplete),
/// everything else max flow. Stateless between calls; the caller caches
/// containers (they depend only on the pair, not on the fault set).
class FaultRouter {
public:
  /// \p Net must outlive the router.
  explicit FaultRouter(const ExplicitScg &Net);

  const ExplicitScg &network() const { return Net; }
  const Csr &graph() const { return G; }

  /// Builds the container for \p Src -> \p Dst (fault-free topology).
  PathContainer buildContainer(NodeId Src, NodeId Dst) const;

  /// Routes across \p C under \p Faults: tries paths shortest-first,
  /// backtracking on the first failed hop of each, and delivers on the
  /// first fully intact path. Delivers if and only if some container path
  /// survives (and neither endpoint node has failed).
  FaultRouteResult route(const PathContainer &C, const FaultSet &Faults) const;

private:
  const ExplicitScg &Net;
  Csr G;
  bool StarFamily;
};

} // namespace scg

#endif // SCG_ROUTING_FAULTROUTER_H
