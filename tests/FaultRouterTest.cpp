//===- tests/FaultRouterTest.cpp - Container router tests ----------------===//

#include "routing/FaultRouter.h"

#include "graph/Bfs.h"
#include "graph/Containers.h"
#include "routing/StarRouter.h"
#include "support/Format.h"

#include <gtest/gtest.h>

#include <unordered_set>

using namespace scg;

namespace {

/// True when U and V are star-adjacent: one-line words equal except
/// positions 1 and j (1-based) swapped, for some j >= 2.
bool starAdjacent(const Permutation &U, const Permutation &V) {
  if (U.size() != V.size() || U[0] == V[0])
    return false;
  unsigned Mismatches = 0, Swapped = 0;
  for (unsigned P = 1; P != U.size(); ++P)
    if (U[P] != V[P]) {
      ++Mismatches;
      if (U[P] == V[0] && V[P] == U[0])
        ++Swapped;
    }
  return Mismatches == 1 && Swapped == 1;
}

/// Label-space container validity: k-1 paths, star-adjacent consecutive
/// hops, internal disjointness, shortest path first.
void expectValidStarContainer(const Permutation &Src, const Permutation &Dst,
                              const StarContainer &Container) {
  ASSERT_TRUE(Container.Complete);
  ASSERT_EQ(Container.Paths.size(), Src.size() - 1);
  unsigned Dist = starDistance(Src, Dst);
  std::unordered_set<Permutation, PermutationHash> Internals;
  for (const std::vector<Permutation> &Path : Container.Paths) {
    ASSERT_GE(Path.size(), 2u);
    EXPECT_EQ(Path.front(), Src);
    EXPECT_EQ(Path.back(), Dst);
    EXPECT_LE(Path.size() - 1, Dist + 8u);
    for (size_t I = 0; I + 1 < Path.size(); ++I)
      EXPECT_TRUE(starAdjacent(Path[I], Path[I + 1]));
    for (size_t I = 1; I + 1 < Path.size(); ++I) {
      EXPECT_NE(Path[I], Src);
      EXPECT_NE(Path[I], Dst);
      EXPECT_TRUE(Internals.insert(Path[I]).second)
          << "internal node shared between container paths";
    }
  }
  EXPECT_EQ(Container.Paths.front().size() - 1, Dist)
      << "first container path must be a shortest route";
  for (size_t I = 0; I + 1 < Container.Paths.size(); ++I)
    EXPECT_LE(Container.Paths[I].size(), Container.Paths[I + 1].size());
}

Permutation randomPermutation(SplitMix64 &Rng, unsigned K) {
  std::vector<uint8_t> Word(K);
  for (unsigned I = 0; I != K; ++I)
    Word[I] = uint8_t(I);
  for (unsigned I = K; I > 1; --I)
    std::swap(Word[I - 1], Word[Rng.nextBelow(I)]);
  return Permutation::fromOneLine(std::move(Word));
}

} // namespace

TEST(StarContainer, ExhaustiveAllPairsK4) {
  // Every ordered pair of star(4): generator construction completes, is a
  // valid maximum container, and matches the max-flow width (Menger).
  ExplicitScg Net(SuperCayleyGraph::star(4));
  Csr G = Net.toCsr();
  for (NodeId Src = 0; Src != Net.numNodes(); ++Src)
    for (NodeId Dst = 0; Dst != Net.numNodes(); ++Dst) {
      if (Src == Dst)
        continue;
      StarContainer Container =
          buildStarContainer(Net.label(Src), Net.label(Dst));
      expectValidStarContainer(Net.label(Src), Net.label(Dst), Container);
      // Cross-validate in NodeId space against the graph and the oracle.
      std::vector<std::vector<NodeId>> Ranked;
      for (const std::vector<Permutation> &Path : Container.Paths) {
        std::vector<NodeId> Ids;
        for (const Permutation &Label : Path)
          Ids.push_back(Net.rankOf(Label));
        Ranked.push_back(std::move(Ids));
      }
      EXPECT_TRUE(internallyNodeDisjoint(Ranked));
      for (const std::vector<NodeId> &Path : Ranked)
        EXPECT_TRUE(isSimplePath(G, Path));
      EXPECT_EQ(Ranked.size(), localConnectivity(G, Src, Dst));
    }
}

TEST(StarContainer, SampledPairsK5AndK6) {
  SplitMix64 Rng(0xC0FFEE);
  for (unsigned K : {5u, 6u}) {
    for (unsigned Trial = 0; Trial != (K == 5 ? 40u : 12u); ++Trial) {
      Permutation Src = randomPermutation(Rng, K);
      Permutation Dst = randomPermutation(Rng, K);
      if (Src == Dst)
        continue;
      expectValidStarContainer(Src, Dst, buildStarContainer(Src, Dst));
    }
  }
}

TEST(StarContainer, GraphFreeAtK12) {
  // 12! nodes -- hopeless to materialize, trivial for the generator
  // construction. 11 disjoint paths between a random far pair.
  SplitMix64 Rng(7);
  Permutation Src = Permutation::identity(12);
  Permutation Dst = randomPermutation(Rng, 12);
  ASSERT_NE(Src, Dst);
  expectValidStarContainer(Src, Dst, buildStarContainer(Src, Dst));
}

TEST(FaultRouter, DispatchesPerFamily) {
  ExplicitScg Star(SuperCayleyGraph::star(5));
  FaultRouter OnStar(Star);
  PathContainer C = OnStar.buildContainer(1, Star.numNodes() - 1);
  EXPECT_EQ(C.Construction, PathContainer::Method::StarGenerator);
  EXPECT_EQ(C.width(), 4u);

  ExplicitScg Bubble(SuperCayleyGraph::bubbleSort(4));
  FaultRouter BubbleRouter(Bubble);
  PathContainer B = BubbleRouter.buildContainer(0, Bubble.numNodes() / 2);
  EXPECT_EQ(B.Construction, PathContainer::Method::MaxFlow);
  EXPECT_EQ(B.width(), 3u);
}

TEST(FaultRouter, DeliversIffSomePathSurvives) {
  // Kill the middle link of every subset of container paths: delivery
  // exactly when the subset is proper, via the shortest surviving path.
  ExplicitScg Net(SuperCayleyGraph::star(4));
  FaultRouter Router(Net);
  PathContainer C = Router.buildContainer(2, 17);
  ASSERT_EQ(C.width(), 3u);
  for (unsigned Mask = 0; Mask != 8; ++Mask) {
    FaultSet Faults;
    for (unsigned P = 0; P != 3; ++P)
      if (Mask & (1u << P)) {
        const std::vector<NodeId> &Path = C.Paths[P];
        size_t Mid = Path.size() / 2;
        Faults.failLink(Path[Mid - 1], Path[Mid]);
      }
    FaultRouteResult Result = Router.route(C, Faults);
    EXPECT_EQ(Result.Delivered, Mask != 7u) << "mask " << Mask;
    EXPECT_EQ(Result.FaultFreeHops, C.shortestLength());
    if (Result.Delivered) {
      unsigned FirstSurvivor = 0;
      while (Mask & (1u << FirstSurvivor))
        ++FirstSurvivor;
      EXPECT_EQ(Result.PathsTried, FirstSurvivor + 1);
      EXPECT_EQ(Result.RouteLength, C.Paths[FirstSurvivor].size() - 1);
    } else {
      EXPECT_EQ(Result.PathsTried, 3u);
      EXPECT_EQ(Result.RouteLength, 0u);
    }
  }
}

TEST(FaultRouter, HopAccountingChargesBacktracks) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  FaultRouter Router(Net);
  PathContainer C = Router.buildContainer(0, Net.numNodes() - 1);
  ASSERT_GE(C.width(), 2u);
  ASSERT_GE(C.Paths[0].size(), 3u);

  // Fault-free: exactly the shortest path, one try, no overhead.
  FaultRouteResult Clean = Router.route(C, FaultSet());
  EXPECT_TRUE(Clean.Delivered);
  EXPECT_EQ(Clean.PathsTried, 1u);
  EXPECT_EQ(Clean.HopsTraversed, C.shortestLength());
  EXPECT_EQ(Clean.RouteLength, C.shortestLength());

  // Break path 0 after its first hop: the probe walks 1 hop out, 1 back,
  // then delivers over path 1.
  FaultSet Faults;
  Faults.failLink(C.Paths[0][1], C.Paths[0][2]);
  FaultRouteResult Result = Router.route(C, Faults);
  EXPECT_TRUE(Result.Delivered);
  EXPECT_EQ(Result.PathsTried, 2u);
  EXPECT_EQ(Result.RouteLength, C.Paths[1].size() - 1);
  EXPECT_EQ(Result.HopsTraversed, 2u + unsigned(C.Paths[1].size() - 1));
}

TEST(FaultRouter, DeadEndpointIsNotRoutable) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  FaultRouter Router(Net);
  PathContainer C = Router.buildContainer(3, 11);
  FaultSet SrcDead, DstDead;
  SrcDead.failNode(3);
  DstDead.failNode(11);
  for (const FaultSet *Faults : {&SrcDead, &DstDead}) {
    FaultRouteResult Result = Router.route(C, *Faults);
    EXPECT_FALSE(Result.Delivered);
    EXPECT_EQ(Result.PathsTried, 0u);
    EXPECT_EQ(Result.HopsTraversed, 0u);
  }
}

TEST(FaultRouter, RandomizedDeliveryMatchesSurvivorEnumeration) {
  // 200 random fault sets on star(5): the router's verdict must equal the
  // brute-force "does any container path fully survive" check, and a
  // delivered route is never cheaper than the fault-free one.
  ExplicitScg Net(SuperCayleyGraph::star(5));
  FaultRouter Router(Net);
  const Csr &G = Router.graph();
  SplitMix64 Rng(0xFA157);
  PathContainer C = Router.buildContainer(5, Net.numNodes() - 7);
  for (unsigned Trial = 0; Trial != 200; ++Trial) {
    FaultSet Faults;
    unsigned NumLinkFaults = 1 + unsigned(Rng.nextBelow(24));
    for (unsigned F = 0; F != NumLinkFaults; ++F) {
      NodeId From = NodeId(Rng.nextBelow(G.numNodes()));
      NodeId To = G.neighbors(From)[Rng.nextBelow(G.neighbors(From).size())];
      Faults.failLink(From, To);
    }
    if (Rng.nextBelow(4) == 0)
      Faults.failNode(NodeId(Rng.nextBelow(G.numNodes())));

    bool AnySurvivor = false;
    if (!Faults.nodeFailed(C.Src) && !Faults.nodeFailed(C.Dst))
      for (const std::vector<NodeId> &Path : C.Paths) {
        bool Intact = true;
        for (size_t I = 0; I + 1 < Path.size() && Intact; ++I)
          Intact = !Faults.linkFailed(Path[I], Path[I + 1]) &&
                   !Faults.nodeFailed(Path[I + 1]);
        AnySurvivor = AnySurvivor || Intact;
      }
    FaultRouteResult Result = Router.route(C, Faults);
    EXPECT_EQ(Result.Delivered, AnySurvivor);
    if (Result.Delivered) {
      EXPECT_GE(Result.HopsTraversed, Result.FaultFreeHops);
    }
  }
}
