//===- networks/Clusters.cpp - Modular (cluster) structure ---------------===//

#include "networks/Clusters.h"

#include "perm/Lehmer.h"

#include <bit>
#include <cassert>

using namespace scg;

ClusterStructure::ClusterStructure(const ExplicitScg &Net) {
  const SuperCayleyGraph &Scg = Net.network();
  assert(Scg.numBoxes() >= 2 && "single-level networks are one cluster");
  unsigned N = Scg.ballsPerBox();
  unsigned K = Scg.numSymbols();

  // The cluster signature is the ordered suffix of symbols at positions
  // n+1 .. k-1: an arrangement of k - n - 1 of the k symbols, which has a
  // dense mixed-radix rank in [0, k!/(n+1)!) -- exactly the cluster count.
  // Rank it with the same remaining-symbol bitmask used by Lehmer ranking
  // and assign ids through a flat first-encounter table instead of an
  // ordered map of suffix vectors.
  uint64_t KeySpace = factorial(K) / factorial(N + 1);
  std::vector<uint32_t> IdOfKey(KeySpace, UINT32_MAX);
  Labels.resize(Net.numNodes());
  uint32_t NextId = 0;
  for (NodeId U = 0; U != Net.numNodes(); ++U) {
    Permutation Label = Net.label(U);
    uint32_t Remaining = ~0u >> (32 - K);
    uint64_t Key = 0;
    for (unsigned P = N + 1; P != K; ++P) {
      uint32_t Bit = 1u << Label[P];
      Key = Key * (K - (P - N - 1)) +
            std::popcount(Remaining & (Bit - 1u));
      Remaining ^= Bit;
    }
    uint32_t &Id = IdOfKey[Key];
    if (Id == UINT32_MAX)
      Id = NextId++;
    Labels[U] = Id;
  }
  Count = NextId;
  Size = Net.numNodes() / Count;
  assert(Count * Size == Net.numNodes() && "uneven clusters");
  assert(Size == factorial(N + 1) && "cluster is not a nucleus network");
}
