//===- graph/Containers.cpp - Node-disjoint path containers --------------===//

#include "graph/Containers.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

using namespace scg;

namespace {

/// Residual arc of the unit-capacity flow network. Orig distinguishes the
/// forward arcs (capacity 1) from their zero-capacity residual twins, and
/// doubles as the "already consumed by path extraction" marker.
struct Arc {
  uint32_t To;   ///< head, in split-node ids.
  uint32_t Rev;  ///< index of the twin arc in Net[To].
  uint8_t Cap;   ///< residual capacity (0 or 1).
  uint8_t Orig;  ///< original capacity (0 for residual twins).
};

/// The split-node flow network: node v of G becomes v_in = 2v (all
/// in-arcs) and v_out = 2v + 1 (all out-arcs), joined by a capacity-1
/// split arc -- the unit vertex capacity that makes flow paths
/// node-disjoint, not just arc-disjoint (Menger via Even-Tarjan). The
/// source's and sink's split arcs are omitted: Src_out is the flow source
/// and Dst_in the sink, so neither endpoint consumes vertex capacity and
/// the endpoints may be shared by every path.
class SplitFlowNet {
public:
  SplitFlowNet(const Csr &G, NodeId Src, NodeId Dst)
      : Net(2 * size_t(G.numNodes())), Source(out(Src)), Sink(in(Dst)) {
    for (NodeId V = 0; V != G.numNodes(); ++V) {
      if (V != Src && V != Dst)
        addArc(in(V), out(V));
      for (NodeId W : G.neighbors(V))
        addArc(out(V), in(W));
    }
  }

  static uint32_t in(NodeId V) { return 2 * V; }
  static uint32_t out(NodeId V) { return 2 * V + 1; }

  /// One shortest-augmenting-path step: BFS the residual network from the
  /// source and push one unit along the first Sink-reaching path found.
  /// Deterministic (adjacency order). Returns false when the flow is
  /// maximum.
  bool augment() {
    Parent.assign(Net.size(), NoParent);
    Queue.clear();
    Queue.push_back(Source);
    Parent[Source] = ArrivalPending; // any non-sentinel: never walked back.
    for (size_t Head = 0; Head != Queue.size(); ++Head) {
      uint32_t Node = Queue[Head];
      if (Node == Sink)
        break;
      for (uint32_t A = 0; A != Net[Node].size(); ++A) {
        const Arc &Edge = Net[Node][A];
        if (Edge.Cap == 0 || Parent[Edge.To] != NoParent)
          continue;
        Parent[Edge.To] = encode(Node, A);
        Queue.push_back(Edge.To);
      }
    }
    if (Parent[Sink] == NoParent)
      return false;
    for (uint32_t Node = Sink; Node != Source;) {
      auto [Prev, A] = decode(Parent[Node]);
      Arc &Edge = Net[Prev][A];
      --Edge.Cap;
      ++Net[Edge.To][Edge.Rev].Cap;
      Node = Prev;
    }
    return true;
  }

  /// Decomposes the integral flow into node sequences Src..Dst. Each
  /// internal node carries at most one unit (its split arc), so following
  /// the unique saturated forward arc out of every visited node is a
  /// deterministic walk that must end at the sink; flow cycles (possible
  /// after residual cancellation) are node-disjoint from these walks and
  /// are simply never entered.
  std::vector<std::vector<NodeId>> extractPaths(NodeId Src, NodeId Dst) {
    std::vector<std::vector<NodeId>> Paths;
    for (Arc &First : Net[Source]) {
      if (First.Orig == 0 || First.Cap != 0)
        continue; // residual twin, or a fault-free forward arc.
      First.Orig = 0; // consume.
      std::vector<NodeId> Path{Src};
      NodeId Cur = NodeId(First.To / 2);
      Path.push_back(Cur);
      while (Cur != Dst) {
        bool Advanced = false;
        for (Arc &Edge : Net[out(Cur)]) {
          if (Edge.Orig == 0 || Edge.Cap != 0)
            continue;
          Edge.Orig = 0;
          Cur = NodeId(Edge.To / 2);
          Path.push_back(Cur);
          Advanced = true;
          break;
        }
        assert(Advanced && "flow conservation violated in decomposition");
        if (!Advanced)
          break; // defensive: drop the malformed path.
      }
      if (Cur == Dst)
        Paths.push_back(std::move(Path));
    }
    return Paths;
  }

private:
  static constexpr uint64_t NoParent = ~uint64_t(0);
  static constexpr uint64_t ArrivalPending = NoParent - 1;

  static uint64_t encode(uint32_t Node, uint32_t A) {
    return (uint64_t(Node) << 32) | A;
  }
  static std::pair<uint32_t, uint32_t> decode(uint64_t P) {
    return {uint32_t(P >> 32), uint32_t(P)};
  }

  void addArc(uint32_t From, uint32_t To) {
    Net[From].push_back({To, uint32_t(Net[To].size()), 1, 1});
    Net[To].push_back({From, uint32_t(Net[From].size() - 1), 0, 0});
  }

  std::vector<std::vector<Arc>> Net;
  uint32_t Source, Sink;
  std::vector<uint64_t> Parent;
  std::vector<uint32_t> Queue;
};

} // namespace

std::vector<std::vector<NodeId>>
scg::nodeDisjointPaths(const Csr &G, NodeId Src, NodeId Dst,
                       unsigned MaxPaths) {
  assert(Src < G.numNodes() && Dst < G.numNodes() && "node out of range");
  assert(Src != Dst && "container endpoints must differ");
  SplitFlowNet Flow(G, Src, Dst);
  unsigned Units = 0;
  while ((MaxPaths == 0 || Units < MaxPaths) && Flow.augment())
    ++Units;
  std::vector<std::vector<NodeId>> Paths = Flow.extractPaths(Src, Dst);
  assert(Paths.size() == Units && "decomposition lost flow units");
  // Shortest path first, ties in discovery order (both deterministic), so
  // Paths[0] is the fault-free route the router measures overhead against.
  std::stable_sort(Paths.begin(), Paths.end(),
                   [](const std::vector<NodeId> &A,
                      const std::vector<NodeId> &B) {
                     return A.size() < B.size();
                   });
  return Paths;
}

unsigned scg::localConnectivity(const Csr &G, NodeId Src, NodeId Dst) {
  SplitFlowNet Flow(G, Src, Dst);
  unsigned Units = 0;
  while (Flow.augment())
    ++Units;
  return Units;
}

bool scg::internallyNodeDisjoint(
    std::span<const std::vector<NodeId>> Paths) {
  if (Paths.empty())
    return true;
  if (Paths.front().size() < 2)
    return false;
  NodeId Src = Paths.front().front(), Dst = Paths.front().back();
  std::unordered_set<NodeId> Internal;
  for (const std::vector<NodeId> &Path : Paths) {
    if (Path.size() < 2 || Path.front() != Src || Path.back() != Dst)
      return false;
    for (size_t I = 1; I + 1 < Path.size(); ++I)
      // An internal node may appear in no other path (including this one)
      // and may not be an endpoint.
      if (Path[I] == Src || Path[I] == Dst ||
          !Internal.insert(Path[I]).second)
        return false;
  }
  return true;
}

bool scg::isSimplePath(const Csr &G, std::span<const NodeId> Path) {
  if (Path.size() < 2)
    return false;
  std::unordered_set<NodeId> Seen;
  for (NodeId Node : Path)
    if (Node >= G.numNodes() || !Seen.insert(Node).second)
      return false;
  for (size_t I = 0; I + 1 < Path.size(); ++I) {
    std::span<const NodeId> Row = G.neighbors(Path[I]);
    if (std::find(Row.begin(), Row.end(), Path[I + 1]) == Row.end())
      return false;
  }
  return true;
}
