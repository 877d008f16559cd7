//===- tests/GroupOrderTest.cpp - Schreier-Sims tests --------------------===//
//
// The stabilizer chain certifies that every super Cayley graph generator
// set generates the full symmetric group -- i.e. the network really has
// k! nodes and is strongly connected -- including at paper-scale
// parameters far beyond what BFS can enumerate.
//
//===----------------------------------------------------------------------===//

#include "perm/GroupOrder.h"

#include "core/SuperCayleyGraph.h"
#include "perm/Lehmer.h"

#include "Oracles.h"

#include <gtest/gtest.h>

using namespace scg;

namespace {

std::vector<Permutation> actionsOf(const SuperCayleyGraph &Net) {
  std::vector<Permutation> Actions;
  for (const Generator &G : Net.generators())
    Actions.push_back(G.Sigma);
  return Actions;
}

} // namespace

TEST(GroupOrder, TrivialGroup) {
  EXPECT_EQ(oracle::permutationGroupOrder({}), 1u);
}

TEST(GroupOrder, SingleTransposition) {
  EXPECT_EQ(oracle::permutationGroupOrder({makeTransposition(5, 2).Sigma}), 2u);
}

TEST(GroupOrder, CyclicRotationGroup) {
  // R alone generates the cyclic group of box rotations: order l.
  for (unsigned L : {3u, 4u, 5u}) {
    Permutation R = makeRotation(2 * L + 1, 2, 1).Sigma;
    EXPECT_EQ(oracle::permutationGroupOrder({R}), L) << "l=" << L;
  }
}

TEST(GroupOrder, SwapsAloneGenerateBoxSymmetries) {
  // S_2..S_l generate S_{l-1}... acting on boxes 2..l with box 1 swappable:
  // the swaps generate the full symmetric group on the l boxes: order l!.
  unsigned L = 4, N = 2, K = L * N + 1;
  std::vector<Permutation> Swaps;
  for (unsigned I = 2; I <= L; ++I)
    Swaps.push_back(makeSwap(K, N, I).Sigma);
  EXPECT_EQ(oracle::permutationGroupOrder(Swaps), factorial(L));
}

TEST(GroupOrder, StarGeneratorsGiveFullSymmetricGroup) {
  for (unsigned K = 3; K <= 9; ++K) {
    SuperCayleyGraph Star = SuperCayleyGraph::star(K);
    EXPECT_EQ(oracle::permutationGroupOrder(actionsOf(Star)), factorial(K));
    EXPECT_TRUE(generatesSymmetricGroup(actionsOf(Star)));
  }
}

TEST(GroupOrder, AdjacentTranspositionsGenerateSk) {
  EXPECT_TRUE(
      generatesSymmetricGroup(actionsOf(SuperCayleyGraph::bubbleSort(7))));
}

TEST(GroupOrder, EvenSubgroupHasHalfOrder) {
  // Two disjoint 3-cycles generate only even permutations.
  Permutation A = Permutation::fromOneLine({1, 2, 0, 3, 4, 5});
  Permutation B = Permutation::fromOneLine({0, 1, 2, 4, 5, 3});
  uint64_t Order = oracle::permutationGroupOrder({A, B});
  EXPECT_LE(Order, factorial(6) / 2);
  EXPECT_FALSE(generatesSymmetricGroup({A, B}));
}

TEST(GroupOrder, ContainsMembershipQueries) {
  StabilizerChain Chain(actionsOf(SuperCayleyGraph::star(5)));
  EXPECT_TRUE(Chain.contains(Permutation::parseOneBased("5 4 3 2 1")));
  StabilizerChain Cyclic({makeRotation(7, 2, 1).Sigma});
  EXPECT_TRUE(Cyclic.contains(makeRotation(7, 2, 2).Sigma));
  EXPECT_FALSE(Cyclic.contains(makeTransposition(7, 2).Sigma));
}

TEST(GroupOrder, AllNetworkClassesGenerateSk) {
  // Every class at (l,n) = (3,2): connectivity certificate for k = 7.
  for (NetworkKind Kind :
       {NetworkKind::MacroStar, NetworkKind::RotationStar,
        NetworkKind::CompleteRotationStar, NetworkKind::MacroRotator,
        NetworkKind::RotationRotator, NetworkKind::CompleteRotationRotator,
        NetworkKind::MacroIS, NetworkKind::RotationIS,
        NetworkKind::CompleteRotationIS}) {
    SuperCayleyGraph Net = SuperCayleyGraph::create(Kind, 3, 2);
    EXPECT_TRUE(generatesSymmetricGroup(actionsOf(Net))) << Net.name();
  }
}

TEST(GroupOrder, PaperScaleConnectivityCertificates) {
  // Far beyond BFS reach: MS(4,3) on 13 symbols (Figure 1a), MS(5,3) on
  // 16 symbols (Figure 1b), and a 31-symbol complete-RIS.
  EXPECT_TRUE(generatesSymmetricGroup(
      actionsOf(SuperCayleyGraph::create(NetworkKind::MacroStar, 4, 3))));
  EXPECT_TRUE(generatesSymmetricGroup(
      actionsOf(SuperCayleyGraph::create(NetworkKind::MacroStar, 5, 3))));
  EXPECT_TRUE(generatesSymmetricGroup(actionsOf(
      SuperCayleyGraph::create(NetworkKind::CompleteRotationIS, 6, 5))));
}

TEST(GroupOrder, OrderMatchesBfsReachability) {
  // Cross-check the chain order against explicit enumeration for a
  // non-obvious subgroup: rotations + one swap.
  unsigned K = 7, N = 2;
  std::vector<Permutation> Gens{makeRotation(K, N, 1).Sigma,
                                makeSwap(K, N, 2).Sigma};
  // BFS closure over composition.
  std::vector<Permutation> Frontier{Permutation::identity(K)};
  std::unordered_map<Permutation, bool, PermutationHash> Seen;
  Seen.emplace(Frontier[0], true);
  while (!Frontier.empty()) {
    std::vector<Permutation> Next;
    for (const Permutation &P : Frontier)
      for (const Permutation &G : Gens) {
        Permutation Q = P.compose(G);
        if (Seen.emplace(Q, true).second)
          Next.push_back(std::move(Q));
      }
    Frontier = std::move(Next);
  }
  EXPECT_EQ(oracle::permutationGroupOrder(Gens), Seen.size());
}
