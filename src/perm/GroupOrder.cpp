//===- perm/GroupOrder.cpp - Schreier-Sims group order --------------------===//

#include "perm/GroupOrder.h"

#include <cassert>
#include <deque>

using namespace scg;

StabilizerChain::StabilizerChain(const std::vector<Permutation> &Generators)
    : Degree(Generators.empty() ? 0 : Generators.front().size()) {
  for (const Permutation &G : Generators) {
    assert(G.size() == Degree && "mixed degrees in generator list");
    if (G.isIdentity())
      continue;
    ensureBaseCovers(G);
    StrongGens.push_back(G);
  }
  if (!Levels.empty())
    schreierSims(0);
}

void StabilizerChain::ensureBaseCovers(const Permutation &P) {
  for (unsigned B : Base)
    if (P[B] != B)
      return;
  unsigned Moved = 0;
  while (P[Moved] == Moved)
    ++Moved;
  Base.push_back(Moved);
  Levels.emplace_back();
  Levels.back().BasePoint = Moved;
}

std::vector<const Permutation *>
StabilizerChain::levelGenerators(unsigned LevelIdx) const {
  // Cumulative strong generating set: level i uses every strong generator
  // fixing the first i base points, which keeps <S_0> >= <S_1> >= ...
  // nested by construction.
  std::vector<const Permutation *> Gens;
  for (const Permutation &G : StrongGens) {
    bool Fixes = true;
    for (unsigned I = 0; I != LevelIdx && Fixes; ++I)
      Fixes = (G[Base[I]] == Base[I]);
    if (Fixes)
      Gens.push_back(&G);
  }
  return Gens;
}

void StabilizerChain::rebuildTransversal(unsigned LevelIdx) {
  unsigned BasePoint = Levels[LevelIdx].BasePoint;
  std::vector<const Permutation *> Gens = levelGenerators(LevelIdx);
  std::unordered_map<unsigned, Permutation> T;
  T.emplace(BasePoint, Permutation::identity(Degree));
  std::deque<unsigned> Queue{BasePoint};
  while (!Queue.empty()) {
    unsigned P = Queue.front();
    Queue.pop_front();
    for (const Permutation *S : Gens) {
      unsigned Q = (*S)[P];
      if (T.count(Q))
        continue;
      T.emplace(Q, S->compose(T.at(P)));
      Queue.push_back(Q);
    }
  }
  Levels[LevelIdx].Transversal = std::move(T);
}

std::pair<Permutation, unsigned>
StabilizerChain::strip(Permutation P, unsigned FromLevel) const {
  for (unsigned I = FromLevel; I != Levels.size(); ++I) {
    unsigned Image = P[Levels[I].BasePoint];
    auto It = Levels[I].Transversal.find(Image);
    if (It == Levels[I].Transversal.end())
      return {std::move(P), I};
    P = It->second.inverse().compose(P);
  }
  return {std::move(P), static_cast<unsigned>(Levels.size())};
}

void StabilizerChain::schreierSims(unsigned LevelIdx) {
  // Holt's recursive closure: on return, every level >= LevelIdx has its
  // transversal computed and all its Schreier generators sift to the
  // identity through the deeper chain.
  while (true) {
    rebuildTransversal(LevelIdx);
    std::vector<const Permutation *> Gens = levelGenerators(LevelIdx);
    // Iterate over a snapshot: the loop exits as soon as it adds anything.
    std::vector<std::pair<unsigned, Permutation>> Orbit(
        Levels[LevelIdx].Transversal.begin(),
        Levels[LevelIdx].Transversal.end());

    bool Added = false;
    for (const auto &[P, U] : Orbit) {
      for (const Permutation *S : Gens) {
        unsigned Q = (*S)[P];
        Permutation Schreier = Levels[LevelIdx]
                                   .Transversal.at(Q)
                                   .inverse()
                                   .compose(*S)
                                   .compose(U);
        if (Schreier.isIdentity())
          continue;
        auto [Residue, StopLevel] =
            strip(std::move(Schreier), LevelIdx + 1);
        if (Residue.isIdentity())
          continue;
        ensureBaseCovers(Residue);
        StrongGens.push_back(std::move(Residue));
        // Re-close the deeper levels the new generator participates in,
        // deepest first, then rescan this level (the generator fixes
        // b_0..b_{LevelIdx}, so it joined S_{LevelIdx} too and may have
        // grown this orbit).
        for (unsigned J = std::min<size_t>(StopLevel, Levels.size() - 1);
             J > LevelIdx; --J)
          schreierSims(J);
        Added = true;
        break;
      }
      if (Added)
        break;
    }
    if (!Added)
      return;
  }
}

std::vector<size_t> StabilizerChain::orbitSizes() const {
  std::vector<size_t> Sizes;
  for (const Level &L : Levels)
    Sizes.push_back(L.Transversal.size());
  return Sizes;
}

bool StabilizerChain::contains(const Permutation &P) const {
  assert(P.size() == Degree || Degree == 0);
  if (P.isIdentity())
    return true;
  auto [Residue, LevelIdx] = strip(P, 0);
  (void)LevelIdx;
  return Residue.isIdentity();
}

bool scg::generatesSymmetricGroup(
    const std::vector<Permutation> &Generators) {
  if (Generators.empty())
    return false;
  unsigned K = Generators.front().size();
  if (K <= 1)
    return true;
  StabilizerChain Chain(Generators);
  // |G| = k! iff the chain has k-1 levels with orbit sizes k, k-1, ..., 2.
  // (Orbit i excludes the i earlier base points, so |orbit_i| <= k - i,
  // and the product of the orbit sizes is |G|; equality everywhere is
  // exactly order k!.) This avoids computing k! itself, which overflows
  // beyond k = 20.
  if (Chain.chainLength() != K - 1)
    return false;
  std::vector<size_t> Sizes = Chain.orbitSizes();
  for (unsigned I = 0; I != Sizes.size(); ++I)
    if (Sizes[I] != K - I)
      return false;
  return true;
}
