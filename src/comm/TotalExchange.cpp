//===- comm/TotalExchange.cpp - Total exchange (Corollary 3) -------------===//

#include "comm/TotalExchange.h"

#include "graph/MsBfs.h"
#include "query/QueryEngine.h"

#include <cassert>
#include <stdexcept>

using namespace scg;

uint64_t scg::teLowerBound(const ExplicitScg &Net) {
  // Vertex transitivity: one BFS gives every node's distance sum. Total
  // packet-hops N * sum over N * degree link capacity per step.
  NodeId Identity[1] = {0};
  MsBfsCounts Counts;
  msBfsCore(Net.toCsr(), Identity, Counts);
  assert(Counts.Visits == Net.numNodes() && "network is disconnected");
  return (Counts.DistanceSum + Net.degree() - 1) / Net.degree();
}

TeResult scg::simulateTotalExchange(const ExplicitScg &Net,
                                    CommModel Model) {
  uint64_t N = Net.numNodes();
  assert(N <= 720 && "total exchange is quadratic in N; keep k <= 6");
  const SuperCayleyGraph &Host = Net.network();
  if (!QueryEngine::supportsTableFree(Host))
    throw std::invalid_argument("simulateTotalExchange: " + Host.name() +
                                " has no table-free route");

  // Routes depend only on the relative permutation: route the N-1
  // non-identity labels once (node Rel's label is its relative label from
  // node 0, the identity).
  std::vector<Permutation> Rels;
  Rels.reserve(N - 1);
  for (NodeId Rel = 1; Rel != N; ++Rel)
    Rels.push_back(Net.label(Rel));
  RouteArena Routes = QueryEngine(Host).routeBatchRelative(Rels);

  NetworkSimulator Sim(Net, Model);
  for (NodeId S = 0; S != N; ++S)
    for (size_t I = 0; I != Routes.size(); ++I) {
      std::span<const GenIndex> Route = Routes.route(I);
      Sim.injectPacket(S, {Route.begin(), Route.end()});
    }

  SimulationResult Run = Sim.run(/*MaxSteps=*/N * 64);
  assert(Run.Completed && "total exchange did not complete");

  TeResult Result;
  Result.Steps = Run.Steps;
  Result.Packets = N * (N - 1);
  Result.LowerBound = teLowerBound(Net);
  Result.Ratio = Result.LowerBound
                     ? double(Result.Steps) / double(Result.LowerBound)
                     : 0.0;
  Result.LinkUtilization = Run.LinkUtilization;
  Result.AverageRouteLength = double(Routes.Hops.size()) / double(N - 1);
  return Result;
}
