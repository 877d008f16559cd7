//===- embedding/Embedding.cpp - Embedding framework + metrics -----------===//

#include "embedding/Embedding.h"

#include "perm/Lehmer.h"

#include <cassert>
#include <unordered_map>

using namespace scg;

namespace {

/// Host-side usage counters for load and congestion. The domains are all of
/// S_k (node ranks) and S_k x degree (directed links), so for small k both
/// live in flat rank-indexed vectors -- no hashing on the per-hop path. For
/// hosts too large to afford k!-sized tables, rank-keyed hash maps back the
/// same interface.
class HostUseCounters {
public:
  HostUseCounters(uint64_t NumNodes, unsigned Degree)
      : Dense(NumNodes <= 362880 /* 9! */) {
    if (Dense) {
      NodeUse.assign(NumNodes, 0);
      LinkUse.assign(NumNodes * Degree, 0);
    }
  }

  uint32_t bumpNode(uint64_t Rank) {
    return Dense ? ++NodeUse[Rank] : ++NodeMap[Rank];
  }
  uint32_t bumpLink(uint64_t LinkKey) {
    return Dense ? ++LinkUse[LinkKey] : ++LinkMap[LinkKey];
  }

private:
  bool Dense;
  std::vector<uint32_t> NodeUse, LinkUse;
  std::unordered_map<uint64_t, uint32_t> NodeMap, LinkMap;
};

} // namespace

EmbeddingMetrics scg::measureEmbedding(const Csr &Guest,
                                       const Embedding &E) {
  assert(E.Host && "embedding must name a host");
  assert(E.NodeMap.size() == Guest.numNodes() &&
         "node map must cover the guest");
  const SuperCayleyGraph &Host = *E.Host;
  EmbeddingMetrics Metrics;
  Metrics.Valid = true;

  unsigned Degree = Host.degree();
  HostUseCounters Use(Host.numNodes(), Degree);

  // Load: multiplicity of host labels, by rank.
  for (const Permutation &P : E.NodeMap) {
    assert(P.size() == Host.numSymbols() && "label size mismatch");
    Metrics.Load = std::max(Metrics.Load, Use.bumpNode(rankPermutation(P)));
  }
  Metrics.Expansion =
      Guest.numNodes()
          ? double(Host.numNodes()) / double(Guest.numNodes())
          : 0.0;

  // Dilation and congestion over all directed guest edges.
  uint64_t EdgeCount = 0, HopTotal = 0;
  for (NodeId U = 0; U != Guest.numNodes(); ++U) {
    for (NodeId V : Guest.neighbors(U)) {
      GeneratorPath Path = E.Route(U, V);
      if (!Path.connects(Host, E.NodeMap[U], E.NodeMap[V])) {
        Metrics.Valid = false;
        continue;
      }
      ++EdgeCount;
      HopTotal += Path.length();
      Metrics.Dilation = std::max(Metrics.Dilation, Path.length());
      Permutation Cur = E.NodeMap[U];
      for (GenIndex G : Path.hops()) {
        uint64_t Key = rankPermutation(Cur) * Degree + G;
        Metrics.Congestion =
            std::max<uint64_t>(Metrics.Congestion, Use.bumpLink(Key));
        Host.neighborInto(Cur, G, Cur);
      }
    }
  }
  Metrics.AverageRouteLength =
      EdgeCount ? double(HopTotal) / double(EdgeCount) : 0.0;
  return Metrics;
}

std::vector<Permutation> scg::identityNodeMap(unsigned K) {
  assert(K <= 9 && "identity node map materializes k! labels");
  uint64_t N = factorial(K);
  std::vector<Permutation> Map;
  Map.reserve(N);
  for (uint64_t Rank = 0; Rank != N; ++Rank)
    Map.push_back(unrankPermutation(Rank, K));
  return Map;
}
