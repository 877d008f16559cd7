//===- routing/FaultRouter.cpp - Containers + fault-tolerant routing ------===//

#include "routing/FaultRouter.h"

#include "routing/StarRouter.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <optional>
#include <queue>
#include <unordered_map>
#include <unordered_set>

using namespace scg;

namespace {

using PermSet = std::unordered_set<Permutation, PermutationHash>;

/// One star hop: right-compose with T_Dim, i.e. swap one-line positions 1
/// and Dim (1-based). Allocation-free for inline sizes; handles spilled
/// words (k > 16) so the graph-free construction scales past the explicit
/// regime.
Permutation starHop(const Permutation &U, unsigned Dim) {
  assert(Dim >= 2 && Dim <= U.size() && "star dimension out of range");
  uint8_t Word[255];
  std::memcpy(Word, U.oneLine().data(), U.size());
  std::swap(Word[0], Word[Dim - 1]);
  return Permutation::fromWord(Word, U.size());
}

struct OpenEntry {
  unsigned F; ///< g + h with h the exact star distance to the goal.
  unsigned G; ///< hops from the segment start.
  Permutation Node;
};

/// Heap order for the best-first search: smallest f first, then *largest*
/// g -- with an exact heuristic every node on a shortest path has f = d,
/// so preferring depth walks one such path straight down without fanning
/// out -- then lexicographically smallest label, for full determinism.
struct OpenOrder {
  bool operator()(const OpenEntry &A, const OpenEntry &B) const {
    if (A.F != B.F)
      return A.F > B.F;
    if (A.G != B.G)
      return A.G < B.G;
    return B.Node < A.Node;
  }
};

/// Safety valve for adversarially obstructed searches; far above anything
/// the k <= 6 exhaustive tests encounter, and an incomplete container just
/// means the max-flow fallback runs instead.
constexpr size_t MaxSearchPops = 100000;

/// A* from \p Start to \p Goal in the star graph on implicit labels,
/// barred from every node in \p Avoid (the goal is always admissible) and
/// from paths longer than \p MaxLen. The heuristic is the exact closed
/// form starDistance, so the first goal expansion is an optimal avoiding
/// path. Returns the node sequence Start..Goal, or nullopt when no
/// avoiding path of length <= MaxLen exists (or the pop cap trips).
std::optional<std::vector<Permutation>>
starAvoidingPath(const Permutation &Start, const Permutation &Goal,
                 const PermSet &Avoid, unsigned MaxLen) {
  if (Start == Goal)
    return std::vector<Permutation>{Start};
  unsigned K = Start.size();
  unsigned H0 = starDistance(Start, Goal);
  if (H0 > MaxLen)
    return std::nullopt;

  std::unordered_map<Permutation, unsigned, PermutationHash> BestG;
  std::unordered_map<Permutation, Permutation, PermutationHash> Parent;
  std::priority_queue<OpenEntry, std::vector<OpenEntry>, OpenOrder> Open;
  BestG.emplace(Start, 0);
  Open.push({H0, 0, Start});
  size_t Pops = 0;
  while (!Open.empty()) {
    OpenEntry Top = Open.top();
    Open.pop();
    if (BestG.find(Top.Node)->second != Top.G)
      continue; // stale entry; a cheaper route to this node was found.
    if (Top.Node == Goal) {
      std::vector<Permutation> Path{Goal};
      for (Permutation Cur = Goal; Cur != Start;) {
        Cur = Parent.at(Cur);
        Path.push_back(Cur);
      }
      std::reverse(Path.begin(), Path.end());
      return Path;
    }
    if (++Pops > MaxSearchPops)
      return std::nullopt;
    for (unsigned Dim = 2; Dim <= K; ++Dim) {
      Permutation Next = starHop(Top.Node, Dim);
      if (Next != Goal && Avoid.count(Next))
        continue;
      unsigned NextG = Top.G + 1;
      unsigned H = starDistance(Next, Goal);
      if (NextG + H > MaxLen)
        continue;
      auto [It, Inserted] = BestG.try_emplace(Next, NextG);
      if (!Inserted) {
        if (It->second <= NextG)
          continue;
        It->second = NextG;
      }
      Parent.insert_or_assign(Next, Top.Node);
      Open.push({NextG + H, NextG, Next});
    }
  }
  return std::nullopt;
}

void sortShortestFirst(std::vector<std::vector<Permutation>> &Paths) {
  std::stable_sort(Paths.begin(), Paths.end(),
                   [](const std::vector<Permutation> &A,
                      const std::vector<Permutation> &B) {
                     return A.size() < B.size();
                   });
}

} // namespace

StarContainer scg::buildStarContainer(const Permutation &Src,
                                      const Permutation &Dst) {
  assert(Src.size() == Dst.size() && "label size mismatch");
  assert(Src != Dst && "container endpoints must differ");
  unsigned K = Src.size();
  StarContainer Container;
  if (K < 2)
    return Container;
  unsigned Dist = starDistance(Src, Dst);

  // The k-1 first hops, one per generator; pairwise distinct because the
  // generators are.
  std::vector<Permutation> FirstHops;
  FirstHops.reserve(K - 1);
  for (unsigned Dim = 2; Dim <= K; ++Dim)
    FirstHops.push_back(starHop(Src, Dim));

  // Base order: shortest unconstrained continuation first, ties in
  // generator order. Along a shortest star path the distance from Src is
  // strictly increasing, so no shortest path revisits a neighbor of Src;
  // the first segment built is therefore never obstructed by the
  // reservations and Paths[0] ends up a true shortest route.
  std::vector<unsigned> Order(K - 1);
  std::iota(Order.begin(), Order.end(), 0u);
  std::stable_sort(Order.begin(), Order.end(), [&](unsigned A, unsigned B) {
    return starDistance(FirstHops[A], Dst) < starDistance(FirstHops[B], Dst);
  });

  // Greedy sequential claiming can dead-end even though a maximum
  // container exists (the search is per-path, not global); rotating the
  // build order re-deals the corridors. No pair at k <= 6 needs more than
  // the base order (tests sample this), but completeness is not
  // guaranteed -- callers fall back to max flow on Complete == false.
  for (unsigned Rotation = 0; Rotation != K - 1; ++Rotation) {
    std::vector<std::vector<Permutation>> Paths;
    PermSet Avoid; // committed internals + reserved first hops + Src.
    Avoid.insert(Src);
    for (const Permutation &Hop : FirstHops)
      Avoid.insert(Hop);
    bool Failed = false;
    for (unsigned I = 0; I != K - 1; ++I) {
      const Permutation &Hop = FirstHops[Order[(I + Rotation) % (K - 1)]];
      Avoid.erase(Hop); // this path's own entry corridor.
      if (Hop == Dst) {
        Paths.push_back({Src, Dst});
        continue;
      }
      // Dist + 7 on the segment keeps every path within Dist + 8 total,
      // comfortably above the worst detour the avoid sets force.
      std::optional<std::vector<Permutation>> Segment =
          starAvoidingPath(Hop, Dst, Avoid, Dist + 7);
      if (!Segment) {
        Failed = true;
        break;
      }
      std::vector<Permutation> Path{Src};
      Path.insert(Path.end(), Segment->begin(), Segment->end());
      // Commit the internals (everything but Dst, including Hop itself).
      for (size_t P = 0; P + 1 < Segment->size(); ++P)
        Avoid.insert((*Segment)[P]);
      Paths.push_back(std::move(Path));
    }
    if (Paths.size() > Container.Paths.size())
      Container.Paths = std::move(Paths); // best partial so far.
    if (!Failed) {
      Container.Complete = true;
      break;
    }
  }
  sortShortestFirst(Container.Paths);
  return Container;
}

FaultRouter::FaultRouter(const ExplicitScg &Net)
    : Net(Net), G(Net.toCsr()),
      StarFamily(Net.network().kind() == NetworkKind::Star) {}

PathContainer FaultRouter::buildContainer(NodeId Src, NodeId Dst) const {
  assert(Src != Dst && "container endpoints must differ");
  PathContainer Container;
  Container.Src = Src;
  Container.Dst = Dst;
  if (StarFamily) {
    StarContainer Star = buildStarContainer(Net.label(Src), Net.label(Dst));
    if (Star.Complete) {
      Container.Construction = PathContainer::Method::StarGenerator;
      Container.Paths.reserve(Star.Paths.size());
      for (const std::vector<Permutation> &Labels : Star.Paths) {
        std::vector<NodeId> Path;
        Path.reserve(Labels.size());
        for (const Permutation &Label : Labels)
          Path.push_back(Net.rankOf(Label));
        Container.Paths.push_back(std::move(Path));
      }
      return Container;
    }
  }
  Container.Construction = PathContainer::Method::MaxFlow;
  Container.Paths = nodeDisjointPaths(G, Src, Dst);
  return Container;
}

FaultRouteResult FaultRouter::route(const PathContainer &C,
                                    const FaultSet &Faults) const {
  FaultRouteResult Result;
  Result.FaultFreeHops = C.shortestLength();
  // A dead endpoint is not routable at all; no hops are spent finding out.
  if (Faults.nodeFailed(C.Src) || Faults.nodeFailed(C.Dst))
    return Result;
  for (const std::vector<NodeId> &Path : C.Paths) {
    ++Result.PathsTried;
    unsigned Walked = 0;
    bool Intact = true;
    for (size_t Hop = 0; Hop + 1 < Path.size(); ++Hop) {
      NodeId From = Path[Hop], To = Path[Hop + 1];
      if (Faults.linkFailed(From, To) || Faults.nodeFailed(To)) {
        Intact = false;
        break;
      }
      ++Walked;
    }
    if (Intact) {
      Result.Delivered = true;
      Result.HopsTraversed += Walked;
      Result.RouteLength = unsigned(Path.size() - 1);
      return Result;
    }
    // The probe walked to the dead hop and backtracked to the source.
    Result.HopsTraversed += 2 * Walked;
  }
  return Result;
}
