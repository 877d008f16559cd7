//===- comm/Collectives.cpp - Broadcast, scatter, gather -----------------===//

#include "comm/Collectives.h"

#include "comm/Mnb.h"

#include <cassert>
#include <stdexcept>

using namespace scg;

namespace {
CollectiveResult collectiveResult(uint64_t Steps, uint64_t LowerBound) {
  return {Steps, LowerBound,
          LowerBound ? double(Steps) / double(LowerBound) : 0.0};
}
} // namespace

CollectiveResult scg::simulateBroadcast(const ExplicitScg &Net,
                                        const BroadcastTree &Tree,
                                        CommModel Model) {
  if (Model == CommModel::SingleDimension)
    throw std::invalid_argument(
        "broadcast: no single-dimension model; simulateMnbSdc is the SDC "
        "collective");
  return collectiveResult(
      detail::runTreeCollective(Net, {&Tree, 1}, /*AllSources=*/false, {},
                                Model == CommModel::SinglePort)
          .Steps,
      Tree.height());
}

CollectiveResult scg::simulateScatter(const ExplicitScg &Net,
                                      const BroadcastTree &Tree,
                                      CommModel Model) {
  NetworkSimulator Sim(Net, Model);
  for (NodeId W = 1; W != Net.numNodes(); ++W)
    Sim.injectPacket(0, Tree.pathFromRoot(W));
  SimulationResult Run =
      Sim.run(/*MaxSteps=*/uint64_t(Net.numNodes()) * Net.degree() * 4);
  assert(Run.Completed && "scatter did not complete");

  return collectiveResult(Run.Steps,
                          Model == CommModel::SinglePort
                              ? Net.numNodes() - 1
                              : mnbLowerBound(Net.numNodes(), Net.degree()));
}

CollectiveResult scg::simulateAllReduce(const ExplicitScg &Net,
                                        const BroadcastTree &Tree,
                                        CommModel Model) {
  CollectiveResult Gather = simulateGather(Net, Tree, Model);
  CollectiveResult Broadcast = simulateBroadcast(Net, Tree, Model);
  return collectiveResult(Gather.Steps + Broadcast.Steps,
                          Gather.LowerBound + Broadcast.LowerBound);
}

CollectiveResult scg::simulateGather(const ExplicitScg &Net,
                                     const BroadcastTree &Tree,
                                     CommModel Model) {
  if (!Net.network().isUndirected())
    throw std::invalid_argument(
        "gather reverses tree links; the network must be undirected");
  const GeneratorSet &Gens = Net.network().generators();
  NetworkSimulator Sim(Net, Model);
  for (NodeId W = 1; W != Net.numNodes(); ++W) {
    std::vector<GenIndex> Down = Tree.pathFromRoot(W);
    std::vector<GenIndex> Up;
    Up.reserve(Down.size());
    for (auto It = Down.rbegin(); It != Down.rend(); ++It)
      Up.push_back(*Gens.inverseOf(*It));
    Sim.injectPacket(W, std::move(Up));
  }
  SimulationResult Run =
      Sim.run(/*MaxSteps=*/uint64_t(Net.numNodes()) * Net.degree() * 4);
  assert(Run.Completed && "gather did not complete");

  return collectiveResult(Run.Steps,
                          mnbLowerBound(Net.numNodes(), Net.degree()));
}
