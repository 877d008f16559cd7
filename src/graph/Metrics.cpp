//===- graph/Metrics.cpp - Diameter and distance statistics --------------===//

#include "graph/Metrics.h"

#include "graph/Bfs.h"
#include "graph/MsBfs.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>

using namespace scg;

namespace {

/// Partial result of an all-pairs sweep: order-independent (AND / max / sum
/// over exact integers), so the parallel fold is byte-identical to serial.
struct SweepAccum {
  bool AllConnected = true;
  uint32_t Diameter = 0;
  uint64_t DistanceSum = 0;
};

SweepAccum mergeSweep(SweepAccum A, const SweepAccum &B) {
  A.AllConnected = A.AllConnected && B.AllConnected;
  A.Diameter = std::max(A.Diameter, B.Diameter);
  A.DistanceSum += B.DistanceSum;
  return A;
}

} // namespace

DistanceStats scg::allPairsStats(const Graph &G) {
  // Flattening to CSR is O(V + E), noise next to the sweep itself; the
  // bit-parallel engine then advances 64 sources per word.
  return msAllPairsStats(Csr(G));
}

DistanceStats scg::scalarAllPairsStats(const Graph &G) {
  DistanceStats Stats;
  if (G.numNodes() == 0)
    return Stats;
  // One BFS per source, spread over the global pool. Each BFS owns its
  // distance buffers, so sources are fully independent; the only shared
  // state is the early-out flag, which can only turn a doomed sweep cheaper,
  // never change its result.
  std::atomic<bool> Disconnected{false};
  SweepAccum Acc = ThreadPool::global().parallelMapReduce<SweepAccum>(
      0, G.numNodes(), SweepAccum{},
      [&](uint64_t Source) {
        SweepAccum One;
        if (Disconnected.load(std::memory_order_relaxed)) {
          One.AllConnected = false;
          return One;
        }
        BfsResult R = bfs(G, NodeId(Source));
        if (R.NumReached != G.numNodes()) {
          Disconnected.store(true, std::memory_order_relaxed);
          One.AllConnected = false;
          return One;
        }
        One.Diameter = R.Eccentricity;
        One.DistanceSum = R.DistanceSum;
        return One;
      },
      mergeSweep);
  if (!Acc.AllConnected)
    return Stats; // Connected=false, zeroed metrics.
  Stats.Connected = true;
  Stats.Diameter = Acc.Diameter;
  uint64_t Pairs = uint64_t(G.numNodes()) * (G.numNodes() - 1);
  Stats.AverageDistance = Pairs ? double(Acc.DistanceSum) / double(Pairs) : 0.0;
  return Stats;
}

DistanceStats scg::vertexTransitiveStats(const Graph &G,
                                         NodeId Representative) {
  DistanceStats Stats;
  if (G.numNodes() == 0)
    return Stats;
  BfsResult R = bfs(G, Representative);
  Stats.Connected = (R.NumReached == G.numNodes());
  Stats.Diameter = R.Eccentricity;
  Stats.AverageDistance = G.numNodes() > 1
                              ? double(R.DistanceSum) / (G.numNodes() - 1)
                              : 0.0;
  return Stats;
}
