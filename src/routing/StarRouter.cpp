//===- routing/StarRouter.cpp - Optimal star-graph routing ---------------===//

#include "routing/StarRouter.h"

#include <array>
#include <bitset>
#include <cassert>
#include <utility>

using namespace scg;

/// Greedily sorts the one-line word \p C of length \p K to the identity, in
/// place, by right-multiplying star generators; appends the dimension of
/// every move to \p Dims. After return, C o T_{Dims[0]} o ... o
/// T_{Dims.back()} = identity. Right multiplication by T_J exchanges the
/// entries at positions 0 and J-1.
static void sortToIdentity(uint8_t *C, unsigned K,
                           std::vector<unsigned> &Dims) {
  // No move takes a position other than 0 away from home, so the scan for
  // the next nontrivial cycle resumes where the last one stopped.
  unsigned Open = 1;
  while (true) {
    if (C[0] != 0) {
      // Send the front symbol to its home position (symbol s lives at
      // position s); this is dimension s+1 in the paper's 1-based indexing.
      unsigned J = unsigned(C[0]) + 1;
      Dims.push_back(J);
      std::swap(C[0], C[J - 1]);
      continue;
    }
    // Front is home: open the next nontrivial cycle, if any.
    while (Open != K && C[Open] == Open)
      ++Open;
    if (Open == K)
      return; // Identity reached.
    Dims.push_back(Open + 1);
    std::swap(C[0], C[Open]);
  }
}

std::vector<unsigned> scg::starWordForPermutation(const Permutation &P) {
  // Sorting C = P^-1 to the identity yields a word whose product is
  // C^-1 = P.
  std::array<uint8_t, 256> C;
  std::span<const uint8_t> Word = P.oneLine();
  for (unsigned Pos = 0; Pos != Word.size(); ++Pos)
    C[Word[Pos]] = uint8_t(Pos);
  std::vector<unsigned> Dims;
  sortToIdentity(C.data(), P.size(), Dims);
  assert(Dims.size() == starDistance(P) && "greedy route is not optimal");
  return Dims;
}

std::vector<unsigned> scg::starRouteDimensions(const Permutation &Src,
                                               const Permutation &Dst) {
  return starWordForPermutation(Src.inverse().compose(Dst));
}

unsigned scg::starDistance(const Permutation &P) {
  // m displaced symbols and c nontrivial cycles, in one walk over the
  // cycles with a visited mask.
  std::span<const uint8_t> Word = P.oneLine();
  std::bitset<256> Visited;
  unsigned Displaced = 0, Cycles = 0;
  for (unsigned Start = 0; Start != Word.size(); ++Start) {
    if (Visited[Start] || Word[Start] == Start)
      continue;
    ++Cycles;
    for (unsigned Cur = Start; !Visited[Cur]; Cur = Word[Cur]) {
      Visited[Cur] = true;
      ++Displaced;
    }
  }
  if (Displaced == 0)
    return 0;
  bool FrontDisplaced = (Word[0] != 0);
  return Displaced + Cycles - (FrontDisplaced ? 2 : 0);
}

unsigned scg::starDistance(const Permutation &Src, const Permutation &Dst) {
  return starDistance(Src.inverse().compose(Dst));
}
