//===- routing/Path.h - Generator-labeled paths ----------------*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A routing path in a (super) Cayley graph is a word over the generator
/// set: traversing the path from node U visits U o g1, U o g1 o g2, ...
/// The net effect of the path is the product g1 g2 ... gm, independent of
/// the start node -- which is why one path template serves every source in
/// a vertex-transitive network (the heart of Theorems 1-5).
///
//===----------------------------------------------------------------------===//

#ifndef SCG_ROUTING_PATH_H
#define SCG_ROUTING_PATH_H

#include "core/SuperCayleyGraph.h"

#include <string>
#include <vector>

namespace scg {

/// A word over a network's generator set.
class GeneratorPath {
public:
  GeneratorPath() = default;
  explicit GeneratorPath(std::vector<GenIndex> Hops) : Hops(std::move(Hops)) {}

  unsigned length() const { return Hops.size(); }
  bool empty() const { return Hops.empty(); }
  void append(GenIndex G) { Hops.push_back(G); }

  const std::vector<GenIndex> &hops() const { return Hops; }

  /// Net effect: the product of the hop actions in order (identity for the
  /// empty path).
  Permutation netEffect(const SuperCayleyGraph &Net) const;

  /// The endpoint when traversing from \p Start.
  Permutation endpoint(const SuperCayleyGraph &Net,
                       const Permutation &Start) const;

  /// True if traversing from \p Start ends at \p End.
  bool connects(const SuperCayleyGraph &Net, const Permutation &Start,
                const Permutation &End) const;

  /// Renders as generator names, e.g. "S2 T3 S2".
  std::string str(const SuperCayleyGraph &Net) const;

private:
  std::vector<GenIndex> Hops;
};

} // namespace scg

#endif // SCG_ROUTING_PATH_H
