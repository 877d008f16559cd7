//===- comm/PermutationRouting.cpp - Permutation traffic -----------------===//

#include "comm/PermutationRouting.h"

#include "query/QueryEngine.h"
#include "support/Format.h"

#include <cassert>
#include <map>
#include <stdexcept>

using namespace scg;

TrafficPattern scg::randomTraffic(const ExplicitScg &Net, uint64_t Seed) {
  // Fisher-Yates with the deterministic RNG.
  TrafficPattern Pattern(Net.numNodes());
  for (NodeId U = 0; U != Net.numNodes(); ++U)
    Pattern[U] = U;
  SplitMix64 Rng(Seed);
  for (NodeId U = Net.numNodes(); U-- > 1;)
    std::swap(Pattern[U], Pattern[Rng.nextBelow(U + 1)]);
  return Pattern;
}

TrafficPattern scg::reversalTraffic(const ExplicitScg &Net) {
  TrafficPattern Pattern(Net.numNodes());
  for (NodeId U = 0; U != Net.numNodes(); ++U)
    Pattern[U] = Net.numNodes() - 1 - U;
  return Pattern;
}

TrafficPattern scg::translationTraffic(const ExplicitScg &Net, GenIndex G) {
  assert(G < Net.degree() && "generator out of range");
  TrafficPattern Pattern(Net.numNodes());
  for (NodeId U = 0; U != Net.numNodes(); ++U)
    Pattern[U] = Net.next(U, G);
  return Pattern;
}

PermutationRoutingResult
scg::simulatePermutationRouting(const ExplicitScg &Net,
                                const TrafficPattern &Pattern,
                                CommModel Model,
                                const std::vector<SimObserver *> &Observers) {
  const SuperCayleyGraph &Host = Net.network();
  const NodeId N = Net.numNodes();
  if (!QueryEngine::supportsTableFree(Host))
    throw std::invalid_argument("simulatePermutationRouting: " + Host.name() +
                                " has no table-free route");
  if (Pattern.size() != N)
    throw std::invalid_argument(
        "simulatePermutationRouting: the pattern has " +
        std::to_string(Pattern.size()) + " entries for " + std::to_string(N) +
        " nodes");

  // Route every moving node's relative label label(U)^-1 o label(Pattern[U])
  // in one batch.
  std::vector<NodeId> Sources;
  std::vector<Permutation> Rels;
  for (NodeId U = 0; U != N; ++U) {
    if (Pattern[U] >= N)
      throw std::invalid_argument(
          "simulatePermutationRouting: pattern entry " + std::to_string(U) +
          " names node " + std::to_string(Pattern[U]) + " of " +
          std::to_string(N));
    if (Pattern[U] == U)
      continue;
    Sources.push_back(U);
    Rels.push_back(Net.label(U).inverse().compose(Net.label(Pattern[U])));
  }
  RouteArena Routes = QueryEngine(Host).routeBatchRelative(Rels);

  PermutationRoutingResult Result;
  NetworkSimulator Sim(Net, Model);
  for (SimObserver *O : Observers)
    Sim.addObserver(O);
  std::map<std::pair<NodeId, GenIndex>, uint64_t> Load;
  unsigned Longest = 0;
  for (size_t I = 0; I != Sources.size(); ++I) {
    std::span<const GenIndex> Route = Routes.route(I);
    NodeId At = Sources[I];
    for (GenIndex G : Route) {
      Result.MaxLinkLoad = std::max(Result.MaxLinkLoad, ++Load[{At, G}]);
      At = Net.next(At, G);
    }
    Longest = std::max(Longest, unsigned(Route.size()));
    Sim.injectPacket(Sources[I], {Route.begin(), Route.end()});
  }

  SimulationResult Run =
      Sim.run(/*MaxSteps=*/uint64_t(Net.numNodes()) * Net.degree() * 8);
  assert(Run.Completed && "permutation routing did not complete");
  Result.Steps = Run.Steps;
  Result.LowerBound = std::max<uint64_t>(Longest, Result.MaxLinkLoad);
  Result.Ratio = Result.LowerBound
                     ? double(Result.Steps) / double(Result.LowerBound)
                     : 0.0;
  Result.AverageRouteLength =
      Sources.empty() ? 0.0
                      : double(Routes.Hops.size()) / double(Sources.size());
  return Result;
}
