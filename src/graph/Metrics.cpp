//===- graph/Metrics.cpp - Diameter and distance statistics --------------===//

#include "graph/Metrics.h"

#include "graph/MsBfs.h"

#include <stdexcept>

using namespace scg;

DistanceStats scg::vertexTransitiveStats(const Csr &G,
                                         NodeId Representative) {
  if (Representative >= G.numNodes())
    throw std::invalid_argument(
        "vertexTransitiveStats: representative is not a node");
  NodeId Sources[1] = {Representative};
  MsBfsCounts Counts;
  msBfsCore(G, Sources, Counts);
  DistanceStats Stats;
  Stats.Connected = (Counts.Visits == G.numNodes());
  Stats.Diameter = Counts.Eccentricity;
  Stats.AverageDistance = G.numNodes() > 1
                              ? double(Counts.DistanceSum) / (G.numNodes() - 1)
                              : 0.0;
  return Stats;
}
