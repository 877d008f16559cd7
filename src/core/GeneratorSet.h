//===- core/GeneratorSet.h - Deduplicated sets of generators ---*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An ordered, deduplicated collection of generators. The set is the
/// connection set of a Cayley graph: each member is one outgoing link (one
/// physical channel) of every node; the paper defines the in-/out-degree as
/// "the number of generators in its definition". Deduplication is by
/// (action, name): adding the same generator twice is a no-op (e.g. R^-1 in
/// RS(2,n) normalizes to R), but two *differently named* generators with
/// equal actions -- I_2 and I_2^-1 in the IS-nucleus networks, which happen
/// to be the same involution -- stay as parallel links with independent
/// capacity, which is the resource model Theorem 5's schedule requires.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_CORE_GENERATORSET_H
#define SCG_CORE_GENERATORSET_H

#include "core/Generator.h"

#include <optional>
#include <unordered_map>
#include <vector>

namespace scg {

/// Index of a generator within a GeneratorSet.
using GenIndex = unsigned;

/// The connection set of a (super) Cayley graph.
class GeneratorSet {
public:
  /// Adds \p G unless a generator with the same action and name is already
  /// present; returns the index of the (possibly pre-existing) generator.
  GenIndex add(Generator G);

  /// Number of distinct generators (= in-/out-degree of the Cayley graph).
  unsigned size() const { return Gens.size(); }

  const Generator &operator[](GenIndex I) const {
    assert(I < Gens.size() && "generator index out of range");
    return Gens[I];
  }

  /// Finds a generator by its action; when parallel links share the action,
  /// the first added one is returned.
  std::optional<GenIndex> findByAction(const Permutation &Sigma) const;

  /// Finds the link matching \p G: exact (action, name) match if present,
  /// otherwise any link with the same action.
  std::optional<GenIndex> findLink(const Generator &G) const;

  /// Returns the index of the inverse of generator \p I, if the inverse
  /// action is in the set.
  std::optional<GenIndex> inverseOf(GenIndex I) const;

  /// True if every generator's inverse is in the set; then the Cayley graph
  /// is undirected (each directed link pairs with its reverse).
  bool isSymmetric() const;

  /// Number of symbols k all generators act on (0 if empty).
  unsigned numSymbols() const {
    return Gens.empty() ? 0 : Gens.front().Sigma.size();
  }

  std::vector<Generator>::const_iterator begin() const { return Gens.begin(); }
  std::vector<Generator>::const_iterator end() const { return Gens.end(); }

private:
  std::vector<Generator> Gens;
  std::unordered_multimap<Permutation, GenIndex, PermutationHash> ByAction;
};

} // namespace scg

#endif // SCG_CORE_GENERATORSET_H
