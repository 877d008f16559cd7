//===- graph/Faults.cpp - Fault injection and robustness -----------------===//

#include "graph/Faults.h"

#include "graph/MsBfs.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <functional>
#include <span>
#include <stdexcept>

using namespace scg;

namespace {

/// The surviving network in one pass over \p G: each row keeps the arcs
/// whose link (and both endpoints) survive, so failed nodes keep their ids
/// but get empty rows and are never reached. Appends the healthy nodes, in
/// id order, to \p Healthy along the way.
Csr survivingCsr(const Csr &G, const FaultSet &Faults,
                 std::vector<NodeId> &Healthy) {
  std::vector<uint64_t> Offsets(uint64_t(G.numNodes()) + 1);
  std::vector<NodeId> Adjacency;
  Adjacency.reserve(G.numEdges());
  Healthy.reserve(G.numNodes());
  for (NodeId From = 0; From != G.numNodes(); ++From) {
    Offsets[From] = Adjacency.size();
    if (Faults.nodeFailed(From))
      continue;
    Healthy.push_back(From);
    for (NodeId To : G.neighbors(From))
      if (!Faults.linkFailed(From, To))
        Adjacency.push_back(To);
  }
  Offsets.back() = Adjacency.size();
  return Csr(std::move(Offsets), std::move(Adjacency));
}

/// True when every surviving arc U -> V has its reverse V -> U: then U
/// reaches V exactly when V reaches U. O(E * degree), stopping at the
/// first arc without a reverse (a rotator, or a one-way fault).
bool isSymmetric(const Csr &Surviving) {
  for (NodeId From = 0; From != Surviving.numNodes(); ++From)
    for (NodeId To : Surviving.neighbors(From)) {
      std::span<const NodeId> Back = Surviving.neighbors(To);
      if (std::find(Back.begin(), Back.end(), From) == Back.end())
        return false;
    }
  return true;
}

/// Ordered reachable pairs of a symmetric survivor, from its components:
/// each healthy node sees its whole component, itself included, just as a
/// lane's visits count its own source. So the lane-visits total is the sum
/// of s_c * s_c over the component sizes s_c, and the pairs are that less
/// one self-visit per healthy node: the sum of s_c * (s_c - 1). One
/// labelling pass, O(V + E).
uint64_t componentPairs(const Csr &Surviving,
                        std::span<const NodeId> Healthy) {
  std::vector<bool> Seen(Surviving.numNodes());
  std::vector<NodeId> Stack;
  uint64_t Visits = 0;
  for (NodeId Root : Healthy) {
    if (Seen[Root])
      continue;
    Seen[Root] = true;
    Stack.push_back(Root);
    uint64_t Size = 0;
    while (!Stack.empty()) {
      NodeId Node = Stack.back();
      Stack.pop_back();
      ++Size;
      for (NodeId Next : Surviving.neighbors(Node))
        if (!Seen[Next]) {
          Seen[Next] = true;
          Stack.push_back(Next);
        }
    }
    Visits += Size * Size;
  }
  return Visits - Healthy.size();
}

/// The body of both analyses. Healthy sources advance 64 per word, and the
/// sink folds each (node, level) visit with one popcount: a batch's
/// lane-visits (each lane counts its own source) and its last level, the
/// largest eccentricity in the batch. No lane can reach more than the
/// HealthyNodes survivors, so a batch is connected iff its visits total
/// HealthyNodes per lane. \p StopAtDisconnect ends the sweep at the first
/// batch that falls short. Otherwise a short first batch on symmetric
/// survivors ends it too: their reachable pairs follow from the component
/// sizes (componentPairs). On symmetric survivors a later batch can fall
/// short only if the first one does, since everyone reaches the first
/// batch's sources and through them whatever they reach. Asymmetric
/// survivors (rotators, one-way faults) run every batch. Batches run
/// serially: the analysis is already one scenario of a parallel sweep.
ReachabilityAnalysis countReachability(const Csr &G, const FaultSet &Faults,
                                       bool StopAtDisconnect) {
  if (!Faults.idsBelow(G.numNodes()))
    throw std::invalid_argument(
        "fault set names a node id outside the graph");
  ReachabilityAnalysis Analysis;
  std::vector<NodeId> Healthy;
  Csr Surviving = survivingCsr(G, Faults, Healthy);
  Analysis.HealthyNodes = Healthy.size();
  if (Healthy.empty())
    return Analysis;
  Analysis.Connected = true;
  uint32_t MaxEccentricity = 0;
  for (size_t Begin = 0; Begin < Healthy.size(); Begin += MsBfsLanes) {
    size_t Lanes = std::min<size_t>(MsBfsLanes, Healthy.size() - Begin);
    uint64_t Visits = 0;
    uint32_t LastLevel = 0;
    msBfsCore(Surviving, std::span(Healthy).subspan(Begin, Lanes),
              [&](NodeId, uint64_t NewMask, uint32_t Level) {
                Visits += uint64_t(std::popcount(NewMask));
                LastLevel = Level; // ascending levels: max wins.
              });
    Analysis.ReachableOrderedPairs += Visits - Lanes;
    MaxEccentricity = std::max(MaxEccentricity, LastLevel);
    if (Visits == Analysis.HealthyNodes * Lanes)
      continue;
    Analysis.Connected = false;
    if (StopAtDisconnect)
      break;
    if (Begin == 0 && isSymmetric(Surviving)) {
      Analysis.ReachableOrderedPairs = componentPairs(Surviving, Healthy);
      break;
    }
  }
  // The diameter is a measurement only when the survivors are mutually
  // connected; it never leaks a partial maximum.
  Analysis.Diameter = Analysis.Connected ? MaxEccentricity : 0;
  return Analysis;
}

} // namespace

FaultAnalysis scg::analyzeUnderFaults(const Csr &G,
                                      const FaultSet &Faults) {
  ReachabilityAnalysis Reach =
      countReachability(G, Faults, /*StopAtDisconnect=*/true);
  return {Reach.Connected, Reach.Diameter, Reach.HealthyNodes};
}

ReachabilityAnalysis
scg::analyzeReachabilityUnderFaults(const Csr &G, const FaultSet &Faults) {
  return countReachability(G, Faults, /*StopAtDisconnect=*/false);
}

namespace {

/// Order-independent reduction over fault scenarios (AND / max), so the
/// parallel sweep matches the serial one byte for byte. Disconnected
/// scenarios do not contribute to WorstDiameter, mirroring the serial loop.
struct SweepOutcome {
  bool AlwaysConnected = true;
  uint32_t WorstDiameter = 0;
};

/// Evaluates NumScenarios single-fault scenarios in parallel on the global
/// pool; each scenario runs one full analyzeUnderFaults (its own surviving
/// graph and BFS buffers), so scenarios share nothing but G.
SweepOutcome evaluateScenarios(const Csr &G, uint64_t NumScenarios,
                               const std::function<FaultSet(uint64_t)> &Make) {
  return ThreadPool::global().parallelMapReduce<SweepOutcome>(
      0, NumScenarios, SweepOutcome{},
      [&](uint64_t I) {
        FaultAnalysis Analysis = analyzeUnderFaults(G, Make(I));
        SweepOutcome One;
        if (!Analysis.Connected)
          One.AlwaysConnected = false;
        else
          One.WorstDiameter = Analysis.Diameter;
        return One;
      },
      [](SweepOutcome A, const SweepOutcome &B) {
        A.AlwaysConnected = A.AlwaysConnected && B.AlwaysConnected;
        A.WorstDiameter = std::max(A.WorstDiameter, B.WorstDiameter);
        return A;
      });
}

} // namespace

SingleFaultSweep scg::sweepSingleLinkFaults(const Csr &G,
                                            unsigned Stride) {
  assert(Stride >= 1 && "stride must be positive");
  SingleFaultSweep Sweep;
  Sweep.FaultFreeDiameter = analyzeUnderFaults(G, FaultSet()).Diameter;

  // Enumerate the strided scenario list deterministically up front, then
  // evaluate scenarios in parallel.
  std::vector<std::pair<NodeId, NodeId>> Links;
  uint64_t Index = 0;
  for (NodeId From = 0; From != G.numNodes(); ++From)
    for (NodeId To : G.neighbors(From)) {
      if (From > To)
        continue; // one scenario per undirected link.
      if (Index++ % Stride != 0)
        continue;
      Links.push_back({From, To});
    }

  SweepOutcome Outcome =
      evaluateScenarios(G, Links.size(), [&](uint64_t I) {
        FaultSet Faults;
        Faults.failLink(Links[I].first, Links[I].second);
        return Faults;
      });
  // The reduction identity is AlwaysConnected = true, so an empty scenario
  // list (edgeless graph) would otherwise certify robustness vacuously.
  Sweep.AlwaysConnected = !Links.empty() && Outcome.AlwaysConnected;
  Sweep.WorstDiameter = Outcome.WorstDiameter;
  Sweep.ScenariosTried = Links.size();
  return Sweep;
}

SingleFaultSweep scg::sweepSingleNodeFaults(const Csr &G,
                                            unsigned Stride) {
  assert(Stride >= 1 && "stride must be positive");
  SingleFaultSweep Sweep;
  Sweep.FaultFreeDiameter = analyzeUnderFaults(G, FaultSet()).Diameter;

  std::vector<NodeId> Nodes;
  for (NodeId Node = 0; Node < G.numNodes(); Node += Stride)
    Nodes.push_back(Node);

  SweepOutcome Outcome =
      evaluateScenarios(G, Nodes.size(), [&](uint64_t I) {
        FaultSet Faults;
        Faults.failNode(Nodes[I]);
        return Faults;
      });
  // Zero scenarios (empty graph) must not read as always-connected.
  Sweep.AlwaysConnected = !Nodes.empty() && Outcome.AlwaysConnected;
  Sweep.WorstDiameter = Outcome.WorstDiameter;
  Sweep.ScenariosTried = Nodes.size();
  return Sweep;
}
