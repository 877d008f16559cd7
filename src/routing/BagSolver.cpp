//===- routing/BagSolver.cpp - Generic shortest-path BAG solver ----------===//

#include "routing/BagSolver.h"

#include "perm/Lehmer.h"

#include <unordered_map>

using namespace scg;

namespace {

/// Discovery record, keyed by Lehmer rank: the generator taken from/toward
/// the neighbor whose rank is Via (forward: Via o gen = this; backward:
/// this o gen = Via).
struct Mark {
  uint64_t Via = 0;
  uint16_t Depth = 0;
  uint8_t Gen = 0;
  uint8_t State = 0; ///< 0 = unvisited, 1 = visited, 2 = root.
};

/// Full-domain mark table: one slot per element of S_k, indexed by rank.
/// No hashing, no rehash churn; the whole frontier bookkeeping is O(1)
/// array probes. Used when k! is small enough to afford the flat table.
class DenseMarks {
public:
  explicit DenseMarks(uint64_t NumNodes) : Table(NumNodes) {}

  bool insert(uint64_t Rank, const Mark &M) {
    if (Table[Rank].State)
      return false;
    Table[Rank] = M;
    return true;
  }
  const Mark *find(uint64_t Rank) const {
    return Table[Rank].State ? &Table[Rank] : nullptr;
  }
  const Mark &at(uint64_t Rank) const {
    assert(Table[Rank].State && "rank was never marked");
    return Table[Rank];
  }

private:
  std::vector<Mark> Table;
};

/// Sparse fallback for k where a flat k!-slot table would not fit in
/// memory (the bidirectional search only ever visits a thin shell then).
class HashMarks {
public:
  explicit HashMarks(uint64_t /*NumNodes*/) {}

  bool insert(uint64_t Rank, const Mark &M) {
    return Table.emplace(Rank, M).second;
  }
  const Mark *find(uint64_t Rank) const {
    auto It = Table.find(Rank);
    return It == Table.end() ? nullptr : &It->second;
  }
  const Mark &at(uint64_t Rank) const {
    auto It = Table.find(Rank);
    assert(It != Table.end() && "rank was never marked");
    return It->second;
  }

private:
  std::unordered_map<uint64_t, Mark> Table;
};

/// Follows forward marks from \p Rank back to the source, producing the hop
/// list source -> node.
template <typename Marks>
std::vector<GenIndex> forwardHops(const Marks &Fwd, uint64_t Rank) {
  std::vector<GenIndex> Rev;
  while (true) {
    const Mark &M = Fwd.at(Rank);
    if (M.State == 2)
      break;
    Rev.push_back(M.Gen);
    Rank = M.Via;
  }
  return {Rev.rbegin(), Rev.rend()};
}

/// Follows backward marks from \p Rank to the destination, producing the
/// hop list node -> destination.
template <typename Marks>
std::vector<GenIndex> backwardHops(const Marks &Bwd, uint64_t Rank) {
  std::vector<GenIndex> Hops;
  while (true) {
    const Mark &M = Bwd.at(Rank);
    if (M.State == 2)
      break;
    Hops.push_back(M.Gen);
    Rank = M.Via;
  }
  return Hops;
}

/// A frontier node: the label (needed to compose hops) plus its rank (the
/// mark-table key), so neither is recomputed on expansion.
struct FrontierNode {
  Permutation Label;
  uint64_t Rank;
};

template <typename Marks>
std::optional<GeneratorPath> solveBagImpl(const SuperCayleyGraph &Net,
                                          const Permutation &Src,
                                          const Permutation &Dst,
                                          unsigned MaxDepth) {
  const GeneratorSet &Gens = Net.generators();
  // Precompute actions and inverse actions once.
  std::vector<Permutation> Fw, Bw;
  for (GenIndex G = 0; G != Gens.size(); ++G) {
    Fw.push_back(Gens[G].Sigma);
    Bw.push_back(Gens[G].Sigma.inverse());
  }

  uint64_t NumNodes = factorial(Net.numSymbols());
  Marks FwdSeen(NumNodes), BwdSeen(NumNodes);
  uint64_t SrcRank = rankPermutation(Src), DstRank = rankPermutation(Dst);
  std::vector<FrontierNode> FwdFrontier{{Src, SrcRank}};
  std::vector<FrontierNode> BwdFrontier{{Dst, DstRank}};
  FwdSeen.insert(SrcRank, Mark{0, 0, 0, 2});
  BwdSeen.insert(DstRank, Mark{0, 0, 0, 2});
  unsigned FwdDepth = 0, BwdDepth = 0;

  while (!FwdFrontier.empty() && !BwdFrontier.empty()) {
    if (MaxDepth && FwdDepth + BwdDepth >= MaxDepth)
      return std::nullopt;

    bool ExpandFwd = FwdFrontier.size() <= BwdFrontier.size();
    std::vector<FrontierNode> &Frontier =
        ExpandFwd ? FwdFrontier : BwdFrontier;
    Marks &Seen = ExpandFwd ? FwdSeen : BwdSeen;
    Marks &Other = ExpandFwd ? BwdSeen : FwdSeen;
    const std::vector<Permutation> &Actions = ExpandFwd ? Fw : Bw;
    unsigned Depth = 1 + (ExpandFwd ? FwdDepth++ : BwdDepth++);

    // Expand the whole level; among the meets found, the shortest total is
    // Depth + (other side's depth of the meet node), which varies per meet,
    // so pick the minimum rather than stopping at the first one.
    std::vector<FrontierNode> NextFrontier;
    std::optional<uint64_t> Meet;
    unsigned MeetTotal = 0;
    Permutation Neighbor;
    for (const FrontierNode &Node : Frontier) {
      for (GenIndex G = 0; G != Actions.size(); ++G) {
        Node.Label.composeInto(Actions[G], Neighbor);
        uint64_t NeighborRank = rankPermutation(Neighbor);
        if (!Seen.insert(NeighborRank, Mark{Node.Rank, uint16_t(Depth),
                                            uint8_t(G), 1}))
          continue;
        if (const Mark *M = Other.find(NeighborRank)) {
          unsigned Total = Depth + M->Depth;
          if (!Meet || Total < MeetTotal) {
            Meet = NeighborRank;
            MeetTotal = Total;
          }
        }
        NextFrontier.push_back({Neighbor, NeighborRank});
      }
    }
    if (Meet) {
      std::vector<GenIndex> Hops = forwardHops(FwdSeen, *Meet);
      for (GenIndex G : backwardHops(BwdSeen, *Meet))
        Hops.push_back(G);
      GeneratorPath Path(std::move(Hops));
      assert(Path.connects(Net, Src, Dst) && "reconstructed path is broken");
      return Path;
    }
    Frontier = std::move(NextFrontier);
  }
  return std::nullopt;
}

} // namespace

std::optional<GeneratorPath> scg::solveBag(const SuperCayleyGraph &Net,
                                           const Permutation &Src,
                                           const Permutation &Dst,
                                           unsigned MaxDepth) {
  assert(Src.size() == Net.numSymbols() && Dst.size() == Net.numSymbols() &&
         "label size mismatch");
  if (Src == Dst)
    return GeneratorPath();
  // The domain is all of S_k: for k <= 9 a flat rank-indexed mark table
  // (<= 6 MB per direction) beats hashing; beyond that the flat table would
  // dominate memory, so fall back to rank-keyed hash maps.
  if (Net.numSymbols() <= 9)
    return solveBagImpl<DenseMarks>(Net, Src, Dst, MaxDepth);
  return solveBagImpl<HashMarks>(Net, Src, Dst, MaxDepth);
}
