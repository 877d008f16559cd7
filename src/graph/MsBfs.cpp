//===- graph/MsBfs.cpp - Bit-parallel multi-source BFS -------------------===//

#include "graph/MsBfs.h"

#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>

using namespace scg;

std::vector<uint8_t> scg::msBfsDistanceRow(const Csr &G, NodeId Source) {
  if (Source >= G.numNodes())
    throw std::invalid_argument("msBfsDistanceRow: source is not a node");
  std::vector<uint8_t> Row(G.numNodes(), MsBfsUnreachableByte);
  NodeId Sources[1] = {Source};
  msBfsCore(G, Sources,
            [&Row](NodeId Node, uint64_t /*NewMask*/, uint32_t Level) {
              assert(Level < MsBfsUnreachableByte &&
                     "distance does not fit a table byte");
              Row[Node] = uint8_t(Level);
            });
  return Row;
}

namespace {

/// Order-independent batch partial (AND / max / exact sums), identical in
/// shape to the scalar oracle's accumulator so the two engines fold the
/// same integers into the same double at the end.
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

DistanceStats scg::msAllPairsStats(const Csr &G) {
  DistanceStats Stats;
  const uint64_t N = G.numNodes();
  if (N == 0)
    return Stats;
  const uint64_t NumBatches = (N + MsBfsLanes - 1) / MsBfsLanes;
  // Batch b owns sources [b * 64, ...); batches are independent (each
  // worker thread reuses its own scratch), and the early-out flag can
  // only make a doomed sweep cheaper, never change its result.
  std::atomic<bool> Disconnected{false};
  SweepAccum Acc = ThreadPool::global().parallelMapReduce<SweepAccum>(
      0, NumBatches, SweepAccum{},
      [&](uint64_t Batch) {
        SweepAccum One;
        if (Disconnected.load(std::memory_order_relaxed)) {
          One.AllConnected = false;
          return One;
        }
        NodeId Begin = NodeId(Batch * MsBfsLanes);
        NodeId End = NodeId(std::min<uint64_t>(N, Begin + MsBfsLanes));
        MsBfsScratch &Scratch = threadScratch<MsBfsScratch>();
        Scratch.Sources.resize(End - Begin);
        std::iota(Scratch.Sources.begin(), Scratch.Sources.end(), Begin);
        // The whole-sweep statistics need no per-lane bookkeeping: the
        // number of lanes arriving per level gives visits / distance sum /
        // diameter, and the batch is fully connected iff lane-visits total
        // N per lane.
        MsBfsCounts Counts;
        // The lambda gives this call an msBfsCore instantiation of its own,
        // which inlines with the sink. The msBfsCore<MsBfsCounts &> that
        // the one-source callers share stays out of line and updates the
        // totals through memory on every visit: 1.3x the star(8) sweep.
        msBfsCore(
            G, Scratch.Sources,
            [&Counts](NodeId Node, uint64_t NewMask, uint32_t Level) {
              Counts(Node, NewMask, Level);
            },
            &Scratch);
        if (Counts.Visits != N * Scratch.Sources.size()) {
          Disconnected.store(true, std::memory_order_relaxed);
          One.AllConnected = false;
          return One;
        }
        One.Diameter = Counts.Eccentricity;
        One.DistanceSum = Counts.DistanceSum;
        return One;
      },
      mergeSweep);
  if (!Acc.AllConnected)
    return Stats; // Connected=false, zeroed metrics.
  Stats.Connected = true;
  Stats.Diameter = Acc.Diameter;
  uint64_t Pairs = N * (N - 1);
  Stats.AverageDistance = Pairs ? double(Acc.DistanceSum) / double(Pairs) : 0.0;
  return Stats;
}
