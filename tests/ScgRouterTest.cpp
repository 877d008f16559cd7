//===- tests/ScgRouterTest.cpp - Lifted routing tests --------------------===//
//
// The library's lifted routes come from QueryEngine (Theorems 1-3: the
// optimal star word of the relative label, every dimension expanded
// through its emulation template). The property tests hold those routes
// to the paper's bounds; the differential holds them, hop for hop, to the
// scalar per-pair oracles of tests/Oracles.h on every node of the
// star-emulating families at k = 5, MS(2,3) and the rotator graphs.
//
//===----------------------------------------------------------------------===//

#include "Oracles.h"

#include "emulation/SdcEmulation.h"
#include "perm/Lehmer.h"
#include "query/QueryEngine.h"
#include "routing/BagSolver.h"
#include "routing/StarRouter.h"
#include "support/Format.h"

#include <gtest/gtest.h>

using namespace scg;

namespace {

std::vector<SuperCayleyGraph> hosts() {
  std::vector<SuperCayleyGraph> Nets;
  Nets.push_back(SuperCayleyGraph::star(5));
  Nets.push_back(SuperCayleyGraph::insertionSelection(5));
  Nets.push_back(SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2));
  Nets.push_back(
      SuperCayleyGraph::create(NetworkKind::CompleteRotationStar, 2, 2));
  Nets.push_back(SuperCayleyGraph::create(NetworkKind::MacroIS, 2, 2));
  Nets.push_back(SuperCayleyGraph::create(NetworkKind::RotationIS, 2, 2));
  return Nets;
}

/// The engine's route as a path, for the Path checks and rendering.
GeneratorPath engineRoute(const QueryEngine &Engine, const Permutation &Src,
                          const Permutation &Dst) {
  return GeneratorPath(Engine.route(Src, Dst).Hops);
}

} // namespace

TEST(ScgRouter, RoutesConnectEndpoints) {
  SplitMix64 Rng(3);
  for (const SuperCayleyGraph &Net : hosts()) {
    QueryEngine Engine(Net);
    for (int Trial = 0; Trial != 50; ++Trial) {
      Permutation A = unrankPermutation(Rng.nextBelow(factorial(5)), 5);
      Permutation B = unrankPermutation(Rng.nextBelow(factorial(5)), 5);
      GeneratorPath Path = engineRoute(Engine, A, B);
      EXPECT_TRUE(Path.connects(Net, A, B)) << Net.name();
    }
  }
}

TEST(ScgRouter, LengthBoundedBySlowdownTimesStarDistance) {
  SplitMix64 Rng(17);
  for (const SuperCayleyGraph &Net : hosts()) {
    QueryEngine Engine(Net);
    unsigned Slowdown = analyzeSdcEmulation(Net).Slowdown;
    for (int Trial = 0; Trial != 50; ++Trial) {
      Permutation A = unrankPermutation(Rng.nextBelow(factorial(5)), 5);
      Permutation B = unrankPermutation(Rng.nextBelow(factorial(5)), 5);
      GeneratorPath Path = engineRoute(Engine, A, B);
      EXPECT_LE(Path.length(), Slowdown * starDistance(A, B)) << Net.name();
    }
  }
}

TEST(ScgRouter, NeverBeatsOptimalAndStaysBounded) {
  // The lifted route can be longer than the exact shortest path (hosts
  // have super links that shortcut many star hops at once) but can never
  // be shorter, and is always within the global emulation bound.
  SplitMix64 Rng(29);
  for (const SuperCayleyGraph &Net : hosts()) {
    QueryEngine Engine(Net);
    unsigned Bound = oracle::liftedRouteBound(Net);
    for (int Trial = 0; Trial != 12; ++Trial) {
      Permutation A = unrankPermutation(Rng.nextBelow(factorial(5)), 5);
      Permutation B = unrankPermutation(Rng.nextBelow(factorial(5)), 5);
      GeneratorPath Lifted = engineRoute(Engine, A, B);
      std::optional<GeneratorPath> Optimal = solveBag(Net, A, B);
      ASSERT_TRUE(Optimal);
      EXPECT_GE(Lifted.length(), Optimal->length()) << Net.name();
      EXPECT_LE(Lifted.length(), Bound) << Net.name();
    }
  }
}

TEST(ScgRouter, StarHostGivesOptimalRoutes) {
  SuperCayleyGraph Star = SuperCayleyGraph::star(6);
  QueryEngine Engine(Star);
  SplitMix64 Rng(31);
  for (int Trial = 0; Trial != 50; ++Trial) {
    Permutation A = unrankPermutation(Rng.nextBelow(factorial(6)), 6);
    Permutation B = unrankPermutation(Rng.nextBelow(factorial(6)), 6);
    GeneratorPath Path = engineRoute(Engine, A, B);
    EXPECT_EQ(Path.length(), starDistance(A, B));
  }
}

TEST(ScgRouter, LiftedRouteBoundFormula) {
  SuperCayleyGraph Ms = SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2);
  // slowdown 3 * star diameter 6 = 18.
  EXPECT_EQ(oracle::liftedRouteBound(Ms), 18u);
}

TEST(ScgRouter, PathRendering) {
  SuperCayleyGraph Ms = SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2);
  Permutation Id = Permutation::identity(5);
  Permutation Dst = Id.compose(makeTransposition(5, 4).Sigma);
  GeneratorPath Path = engineRoute(QueryEngine(Ms), Id, Dst);
  EXPECT_EQ(Path.str(Ms), "S2 T2 S2");
}

TEST(ScgRouter, EngineMatchesScalarOraclesOnEveryNode) {
  // Every relative label of each host, routed both one at a time and as
  // one batch (the path the comm entry points take), must equal the
  // scalar oracle's route hop for hop.
  std::vector<SuperCayleyGraph> Hosts = {
      SuperCayleyGraph::star(5),
      SuperCayleyGraph::transpositionNetwork(5),
      SuperCayleyGraph::insertionSelection(5),
      SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 3),
      SuperCayleyGraph::rotator(5),
      SuperCayleyGraph::rotator(6)};
  for (NetworkKind Kind :
       {NetworkKind::MacroStar, NetworkKind::RotationStar,
        NetworkKind::CompleteRotationStar, NetworkKind::MacroIS,
        NetworkKind::RotationIS, NetworkKind::CompleteRotationIS}) {
    Hosts.push_back(SuperCayleyGraph::create(Kind, 2, 2));
    Hosts.push_back(SuperCayleyGraph::create(Kind, 4, 1));
  }

  for (const SuperCayleyGraph &Net : Hosts) {
    ASSERT_TRUE(QueryEngine::supportsTableFree(Net)) << Net.name();
    bool IsRotator = Net.kind() == NetworkKind::Rotator;
    unsigned K = Net.numSymbols();
    Permutation Id = Permutation::identity(K);
    QueryEngine Engine(Net);
    std::vector<Permutation> Rels;
    for (uint64_t R = 0; R != Net.numNodes(); ++R)
      Rels.push_back(unrankPermutation(R, K));
    RouteArena Batch = Engine.routeBatchRelative(Rels);
    ASSERT_EQ(Batch.size(), Rels.size()) << Net.name();
    for (size_t I = 0; I != Rels.size(); ++I) {
      std::vector<GenIndex> Want =
          (IsRotator ? oracle::routeInRotator(Net, Id, Rels[I])
                     : oracle::routeViaStarEmulation(Net, Id, Rels[I]))
              .hops();
      ASSERT_EQ(Engine.route(Id, Rels[I]).Hops, Want)
          << Net.name() << " label " << Rels[I].str();
      std::span<const GenIndex> Got = Batch.route(I);
      ASSERT_TRUE(std::equal(Got.begin(), Got.end(), Want.begin(), Want.end()))
          << Net.name() << " batched label " << Rels[I].str();
    }
  }
}
