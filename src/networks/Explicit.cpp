//===- networks/Explicit.cpp - Materialized super Cayley graphs ----------===//

#include "networks/Explicit.h"

#include "perm/Lehmer.h"
#include "support/ThreadPool.h"

#include <cassert>

using namespace scg;

ExplicitScg::ExplicitScg(SuperCayleyGraph Network) : Net(std::move(Network)) {
  unsigned K = Net.numSymbols();
  assert(K <= 10 && "explicit enumeration is limited to k <= 10 (k! nodes)");
  uint64_t N = factorial(K);
  Count = static_cast<NodeId>(N);
  unsigned Degree = Net.degree();
  Next.resize(N * Degree);
  // Each slot Next[U * Degree + G] is a pure function of (U, G) and is
  // written exactly once, so any chunking of the rank range produces the
  // identical table; the sweep parallelizes over rank chunks on the global
  // pool (SCG_THREADS=1 forces the serial build).
  ThreadPool::global().parallelForChunks(
      0, N, /*ChunkSize=*/0, [&](uint64_t Begin, uint64_t End) {
        Permutation Neighbor;
        for (uint64_t U = Begin; U != End; ++U) {
          Permutation Label = unrankPermutation(U, K);
          for (GenIndex G = 0; G != Degree; ++G) {
            Net.neighborInto(Label, G, Neighbor);
            Next[U * Degree + G] = static_cast<NodeId>(
                rankPermutation(Neighbor));
          }
        }
      });
}

Permutation ExplicitScg::label(NodeId U) const {
  assert(U < Count && "node id out of range");
  return unrankPermutation(U, Net.numSymbols());
}

NodeId ExplicitScg::rankOf(const Permutation &P) const {
  assert(P.size() == Net.numSymbols() && "label size mismatch");
  return static_cast<NodeId>(rankPermutation(P));
}

Csr ExplicitScg::toCsr() const { return Csr(Count, degree(), Next); }

Csr ExplicitScg::toGraph() const { return toCsr(); }
