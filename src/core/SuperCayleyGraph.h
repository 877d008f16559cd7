//===- core/SuperCayleyGraph.h - The ten SCG classes of the paper -*-C++-*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The super Cayley graph descriptor: a network kind, the parameters (l, n),
/// and the generator set that defines the (directed) Cayley graph on S_k,
/// k = l*n + 1. Covers the ten classes of Section 2.2 plus the three
/// classic permutation networks (star, bubble-sort, transposition network)
/// the paper compares against and embeds.
///
/// Nodes are never materialized here: the descriptor answers neighbor
/// queries on permutations and reports degree/size analytically. The
/// explicit adjacency builder lives in networks/Explicit.h.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_CORE_SUPERCAYLEYGRAPH_H
#define SCG_CORE_SUPERCAYLEYGRAPH_H

#include "core/GeneratorSet.h"

#include <cstdint>
#include <string>

namespace scg {

/// The network classes implemented by this library. The first three are the
/// classic comparison topologies; the remaining ten are the super Cayley
/// graph classes enumerated in Section 2.2 of the paper (macro-star networks
/// are super Cayley graphs too, per [21]).
enum class NetworkKind {
  Star,           ///< k-star: T_i, i = 2..k.
  BubbleSort,     ///< adjacent transpositions A_i, i = 1..k-1.
  Transposition,  ///< k-TN: all T_{i,j} [12].
  TranspositionTree, ///< Cayley graph of a transposition tree [2]; star
                     ///< and bubble-sort are the extreme trees.
  Rotator,        ///< k-rotator: I_i, i = 2..k (directed) [6].
  InsertionSelection,   ///< IS(k): I_i and I_i^-1, i = 2..k.
  MacroStar,            ///< MS(l,n): T nucleus, S super [21].
  RotationStar,         ///< RS(l,n): T nucleus, R and R^-1 super.
  CompleteRotationStar, ///< complete-RS(l,n): T nucleus, R^i super.
  MacroRotator,            ///< MR(l,n): I nucleus, S super (directed).
  RotationRotator,         ///< RR(l,n): I nucleus, R/R^-1 super (directed).
  CompleteRotationRotator, ///< complete-RR(l,n): I nucleus, all R^i
                           ///< (directed).
  MacroIS,            ///< MIS(l,n): I and I^-1 nucleus, S super.
  RotationIS,         ///< RIS(l,n): I/I^-1 nucleus, R/R^-1 super.
  CompleteRotationIS, ///< complete-RIS(l,n): I/I^-1 nucleus, all R^i super.
};

/// Returns the display name of \p Kind ("MS", "complete-RS", ...).
std::string networkKindName(NetworkKind Kind);

/// A super Cayley graph (or classic permutation network) descriptor.
class SuperCayleyGraph {
public:
  /// Builds an l-level super Cayley graph of class \p Kind with \p L boxes
  /// of \p N balls each (k = l*n + 1). For the single-level classes (Star,
  /// BubbleSort, Transposition, InsertionSelection) use the k-based named
  /// constructors below instead.
  static SuperCayleyGraph create(NetworkKind Kind, unsigned L, unsigned N);

  /// k-dimensional star graph.
  static SuperCayleyGraph star(unsigned K);
  /// k-dimensional bubble-sort graph.
  static SuperCayleyGraph bubbleSort(unsigned K);
  /// k-dimensional transposition network.
  static SuperCayleyGraph transpositionNetwork(unsigned K);
  /// k-dimensional rotator graph (directed).
  static SuperCayleyGraph rotator(unsigned K);
  /// Cayley graph of an arbitrary transposition tree on \p K vertices:
  /// one generator T_{i,j} per tree edge (1-based vertex pairs). The
  /// Akers-Krishnamurthy model [2] the super Cayley graphs refine; the
  /// star graph is the star tree and the bubble-sort graph the path.
  /// Asserts \p Edges forms a spanning tree.
  static SuperCayleyGraph
  transpositionTree(unsigned K,
                    const std::vector<std::pair<unsigned, unsigned>> &Edges);
  /// k-dimensional insertion-selection network.
  static SuperCayleyGraph insertionSelection(unsigned K);

  NetworkKind kind() const { return Kind; }
  /// Number of boxes l (1 for single-level networks).
  unsigned numBoxes() const { return L; }
  /// Balls per box n (k-1 for single-level networks).
  unsigned ballsPerBox() const { return N; }
  /// Number of symbols k = l*n + 1.
  unsigned numSymbols() const { return K; }
  /// Number of nodes k!.
  uint64_t numNodes() const;
  /// Out-degree = number of distinct generators.
  unsigned degree() const { return Gens.size(); }
  /// True if the generator set is closed under inverses: false for the
  /// rotator-style classes (directed Cayley graphs), except that those
  /// with n = 1 happen to be symmetric (their only insertion I_2 is an
  /// involution).
  bool isUndirected() const { return Symmetric; }

  /// Display name including parameters, e.g. "MS(4,3)" or "star(7)".
  std::string name() const;

  const GeneratorSet &generators() const { return Gens; }

  /// Returns the neighbor of \p U along generator \p I.
  Permutation neighbor(const Permutation &U, GenIndex I) const {
    return U.applyGenerator(Gens[I].Sigma);
  }

  /// Computes the neighbor of \p U along generator \p I into \p V without
  /// allocating: one hop is a single in-place composition. \p V may alias
  /// \p U, so `Net.neighborInto(Cur, G, Cur)` walks a path in place.
  void neighborInto(const Permutation &U, GenIndex I, Permutation &V) const {
    U.composeInto(Gens[I].Sigma, V);
  }

private:
  SuperCayleyGraph(NetworkKind Kind, unsigned L, unsigned N, GeneratorSet G)
      : Kind(Kind), L(L), N(N), K(L * N + 1), Gens(std::move(G)),
        Symmetric(Gens.isSymmetric()) {}

  NetworkKind Kind;
  unsigned L; ///< boxes.
  unsigned N; ///< balls per box.
  unsigned K; ///< symbols, l*n + 1.
  GeneratorSet Gens;
  bool Symmetric;
};

} // namespace scg

#endif // SCG_CORE_SUPERCAYLEYGRAPH_H
