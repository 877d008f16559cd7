//===- comm/Mnb.cpp - Multinode broadcast (Corollary 2) ------------------===//

#include "comm/Mnb.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

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

/// Runs an MNB (every node a source) and reports it against \p LowerBound.
MnbResult runAllSources(const ExplicitScg &Net,
                        std::span<const BroadcastTree> Trees,
                        std::span<const GenIndex> Cycle, uint64_t LowerBound) {
  detail::TreeRun Run = detail::runTreeCollective(
      Net, Trees, /*AllSources=*/true, Cycle, /*SinglePort=*/false);
  uint64_t N = Net.numNodes();
  assert(Run.Deliveries == N * (N - 1) && "MNB did not reach everyone");
  return {Run.Steps, Run.Deliveries, LowerBound,
          LowerBound ? double(Run.Steps) / double(LowerBound) : 0.0,
          Run.Steps ? double(Run.Deliveries) /
                          double(N * Net.degree() * Run.Steps)
                    : 0.0};
}

} // namespace

detail::TreeRun detail::runTreeCollective(const ExplicitScg &Net,
                                          std::span<const BroadcastTree> Trees,
                                          bool AllSources,
                                          std::span<const GenIndex> Cycle,
                                          bool SinglePort) {
  if (Trees.empty())
    throw std::invalid_argument("tree collective: no broadcast tree");
  uint64_t N = Net.numNodes();
  unsigned Degree = Net.degree();
  uint64_t NumSources = AllSources ? N : 1;
  uint64_t UsedTrees = std::min<uint64_t>(Trees.size(), NumSources);

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
  for (NodeId S = 0; S != NumSources; ++S) {
    uint32_t T = uint32_t(S % Trees.size());
    for (GenIndex G : Trees[T].children(0)) {
      Queues.push(size_t(G) * N + S, uint32_t(uint64_t(T) << RelBits));
      ++Pending;
    }
  }

  const NodeId *Next = Net.nextTable().data();
  std::vector<uint64_t> LastSend(SinglePort ? N : 0, ~uint64_t(0));
  struct Arrival {
    NodeId At;
    uint32_t Token;
  };
  std::vector<Arrival> Arrivals;
  TreeRun Run;
  while (Pending != 0) {
    uint64_t Step = Run.Steps++;
    GenIndex First = Cycle.empty() ? 0 : Cycle[Step % Cycle.size()];
    GenIndex Last = Cycle.empty() ? Degree : First + 1;
    Arrivals.clear();
    for (GenIndex G = First; G != Last; ++G) {
      size_t Row = size_t(G) * N;
      for (NodeId U = 0; U != N; ++U) {
        // Single-port: the first non-empty link claims the node's port.
        if (Queues.empty(Row + U) ||
            (SinglePort && std::exchange(LastSend[U], Step) == Step))
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
    Run.Deliveries += Arrivals.size();
    for (const Arrival &A : Arrivals) {
      const BroadcastTree &Tree = Trees[uint64_t(A.Token) >> RelBits];
      for (GenIndex G : Tree.children(A.Token & RelMask)) {
        Queues.push(size_t(G) * N + A.At, A.Token);
        ++Pending;
      }
    }
  }
  return Run;
}

MnbResult scg::simulateMnb(const ExplicitScg &Net,
                           const BroadcastTree &Tree) {
  return runAllSources(Net, {&Tree, 1}, {},
                       mnbLowerBound(Net.numNodes(), Net.degree()));
}

MnbResult scg::simulateMnbStriped(const ExplicitScg &Net,
                                  const std::vector<BroadcastTree> &Trees) {
  return runAllSources(Net, Trees, {},
                       mnbLowerBound(Net.numNodes(), Net.degree()));
}

MnbResult scg::simulateMnbSdc(const ExplicitScg &Net,
                              const BroadcastTree &Tree,
                              std::vector<GenIndex> Cycle) {
  if (Cycle.empty())
    for (GenIndex G = 0; G != Net.degree(); ++G)
      Cycle.push_back(G);
  return runAllSources(Net, {&Tree, 1}, Cycle,
                       mnbSdcLowerBound(Net.numNodes()));
}
