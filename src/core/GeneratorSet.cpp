//===- core/GeneratorSet.cpp - Deduplicated sets of generators -----------===//

#include "core/GeneratorSet.h"

using namespace scg;

GenIndex GeneratorSet::add(Generator G) {
  assert((Gens.empty() || G.Sigma.size() == numSymbols()) &&
         "all generators in a set must act on the same number of symbols");
  assert(!G.Sigma.isIdentity() && "the identity is not a generator");
  auto Range = ByAction.equal_range(G.Sigma);
  for (auto It = Range.first; It != Range.second; ++It)
    if (Gens[It->second].Name == G.Name)
      return It->second;
  GenIndex Index = Gens.size();
  ByAction.emplace(G.Sigma, Index);
  Gens.push_back(std::move(G));
  return Index;
}

std::optional<GenIndex>
GeneratorSet::findByAction(const Permutation &Sigma) const {
  auto Range = ByAction.equal_range(Sigma);
  if (Range.first == Range.second)
    return std::nullopt;
  // Prefer the earliest-added link for determinism.
  GenIndex Best = Range.first->second;
  for (auto It = Range.first; It != Range.second; ++It)
    Best = std::min(Best, It->second);
  return Best;
}

std::optional<GenIndex> GeneratorSet::findLink(const Generator &G) const {
  auto Range = ByAction.equal_range(G.Sigma);
  std::optional<GenIndex> AnyMatch;
  for (auto It = Range.first; It != Range.second; ++It) {
    if (Gens[It->second].Name == G.Name)
      return It->second;
    if (!AnyMatch || It->second < *AnyMatch)
      AnyMatch = It->second;
  }
  return AnyMatch;
}

std::optional<GenIndex> GeneratorSet::inverseOf(GenIndex I) const {
  return findByAction(Gens[I].Sigma.inverse());
}

bool GeneratorSet::isSymmetric() const {
  for (GenIndex I = 0; I != Gens.size(); ++I)
    if (!inverseOf(I))
      return false;
  return true;
}
