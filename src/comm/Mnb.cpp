//===- comm/Mnb.cpp - Multinode broadcast (Corollary 2) ------------------===//

#include "comm/Mnb.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <span>
#include <stdexcept>
#include <string>

using namespace scg;

uint64_t scg::mnbLowerBound(uint64_t NumNodes, unsigned Degree) {
  assert(Degree != 0 && "degenerate network");
  return (NumNodes - 1 + Degree - 1) / Degree;
}

uint64_t scg::mnbSdcLowerBound(uint64_t NumNodes) { return NumNodes - 1; }

namespace {

/// Every link's FIFO of 4-byte tokens, in one pool of 64-byte blocks: a
/// block holds 15 tokens and, in its last slot, the next block's index. A
/// queue is its head and tail slot (0 = no block yet); spent blocks go to
/// a free list, so the pool stops growing at the peak load.
class TokenQueues {
public:
  explicit TokenQueues(size_t NumQueues) : Ends(NumQueues) {}

  bool empty(size_t Q) const { return Ends[Q].Head == Ends[Q].Tail; }

  uint32_t pop(size_t Q) {
    uint32_t &Head = Ends[Q].Head;
    uint32_t Token = Pool[Head++];
    if (Head % BlockSlots == BlockSlots - 1) {
      Free.push_back(Head / BlockSlots);
      Head = Pool[Head] * BlockSlots;
    }
    return Token;
  }

  void push(size_t Q, uint32_t Token) {
    uint32_t &Tail = Ends[Q].Tail;
    if (Tail == 0)
      Ends[Q].Head = Tail = allocate() * BlockSlots;
    Pool[Tail++] = Token;
    if (Tail % BlockSlots == BlockSlots - 1) {
      uint32_t Block = allocate();
      Pool[Tail] = Block;
      Tail = Block * BlockSlots;
    }
  }

private:
  static constexpr uint32_t BlockSlots = 16;

  uint32_t allocate() {
    if (Free.empty()) {
      Pool.resize(Pool.size() + BlockSlots);
      assert(Pool.size() <= UINT32_MAX && "token slots overflow 32 bits");
      return uint32_t(Pool.size() / BlockSlots - 1);
    }
    uint32_t Block = Free.back();
    Free.pop_back();
    return Block;
  }

  struct QueueEnds {
    uint32_t Head = 0, Tail = 0;
  };
  std::vector<QueueEnds> Ends;
  // Block 0 is never handed out, so slot 0 can mean "no block".
  std::vector<uint32_t> Pool = std::vector<uint32_t>(BlockSlots);
  std::vector<uint32_t> Free;
};

/// The one step loop behind every MNB (plain, SDC and striped): every
/// node s broadcasts along Trees[s % Trees.size()]. At step t every link
/// fires, or only generator Cycle[t % Cycle.size()] when \p Cycle is
/// non-empty. Links transmit generator-major and a token moves one hop per
/// step (DESIGN.md section 15). The run is reported against \p LowerBound.
/// Throws std::invalid_argument on an empty \p Trees, or on a \p Cycle that
/// names a generator >= degree or omits one that labels a tree edge.
MnbResult runTreeCollective(const ExplicitScg &Net,
                            std::span<const BroadcastTree> Trees,
                            std::span<const GenIndex> Cycle,
                            uint64_t LowerBound) {
  if (Trees.empty())
    throw std::invalid_argument("tree collective: no broadcast tree");
  uint64_t N = Net.numNodes();
  unsigned Degree = Net.degree();
  uint64_t UsedTrees = std::min<uint64_t>(Trees.size(), N);

  std::vector<bool> Fires(Degree, Cycle.empty());
  for (GenIndex G : Cycle) {
    if (G >= Degree)
      throw std::invalid_argument("tree collective: cycle names generator " +
                                  std::to_string(G) + " >= degree");
    Fires[G] = true;
  }
  for (uint64_t T = 0; T != UsedTrees; ++T)
    for (NodeId W = 0; W != N; ++W)
      for (GenIndex G : Trees[T].children(W))
        if (!Fires[G])
          throw std::invalid_argument(
              "tree collective: cycle omits tree-edge generator " +
              std::to_string(G));

  // A token is (tree index << RelBits) | relative rank.
  unsigned RelBits = std::bit_width(N - 1);
  assert(RelBits + std::bit_width(UsedTrees - 1) <= 32 &&
         "more trees than a 32-bit token indexes");
  uint32_t RelMask = uint32_t((uint64_t(1) << RelBits) - 1);

  // One queue per link, generator-major (G * N + U), so the scan over a
  // generator's links is sequential.
  TokenQueues Queues(size_t(N) * Degree);
  uint64_t Pending = 0;
  for (NodeId S = 0; S != N; ++S) {
    uint32_t T = uint32_t(S % Trees.size());
    for (GenIndex G : Trees[T].children(0)) {
      Queues.push(size_t(G) * N + S, uint32_t(uint64_t(T) << RelBits));
      ++Pending;
    }
  }

  const NodeId *Next = Net.nextTable().data();
  struct Arrival {
    NodeId At;
    uint32_t Token;
  };
  std::vector<Arrival> Arrivals;
  uint64_t Steps = 0, Deliveries = 0;
  while (Pending != 0) {
    uint64_t Step = Steps++;
    GenIndex First = Cycle.empty() ? 0 : Cycle[Step % Cycle.size()];
    GenIndex Last = Cycle.empty() ? Degree : First + 1;
    Arrivals.clear();
    for (GenIndex G = First; G != Last; ++G) {
      size_t Row = size_t(G) * N;
      for (NodeId U = 0; U != N; ++U) {
        if (Queues.empty(Row + U))
          continue;
        uint32_t Token = Queues.pop(Row + U);
        NodeId Rel = Next[size_t(Token & RelMask) * Degree + G];
        Arrivals.push_back({Next[size_t(U) * Degree + G],
                            (Token & ~RelMask) | Rel});
      }
    }
    // Deliver and replicate after the transmission phase so a token moves
    // at most one hop per step.
    Pending -= Arrivals.size();
    Deliveries += Arrivals.size();
    for (const Arrival &A : Arrivals) {
      const BroadcastTree &Tree = Trees[uint64_t(A.Token) >> RelBits];
      for (GenIndex G : Tree.children(A.Token & RelMask)) {
        Queues.push(size_t(G) * N + A.At, A.Token);
        ++Pending;
      }
    }
  }
  assert(Deliveries == N * (N - 1) && "MNB did not reach everyone");
  return {Steps, Deliveries, LowerBound,
          LowerBound ? double(Steps) / double(LowerBound) : 0.0,
          Steps ? double(Deliveries) / double(N * Degree * Steps) : 0.0};
}

} // namespace

MnbResult scg::simulateMnb(const ExplicitScg &Net,
                           const BroadcastTree &Tree) {
  return runTreeCollective(Net, {&Tree, 1}, {},
                           mnbLowerBound(Net.numNodes(), Net.degree()));
}

MnbResult scg::simulateMnbStriped(const ExplicitScg &Net,
                                  const std::vector<BroadcastTree> &Trees) {
  return runTreeCollective(Net, Trees, {},
                           mnbLowerBound(Net.numNodes(), Net.degree()));
}

MnbResult scg::simulateMnbSdc(const ExplicitScg &Net,
                              const BroadcastTree &Tree,
                              std::vector<GenIndex> Cycle) {
  if (Cycle.empty())
    for (GenIndex G = 0; G != Net.degree(); ++G)
      Cycle.push_back(G);
  return runTreeCollective(Net, {&Tree, 1}, Cycle,
                           mnbSdcLowerBound(Net.numNodes()));
}
