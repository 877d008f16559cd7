//===- core/SuperCayleyGraph.cpp - The ten SCG classes of the paper ------===//

#include "core/SuperCayleyGraph.h"

#include "perm/Lehmer.h"

#include <cassert>

using namespace scg;

std::string scg::networkKindName(NetworkKind Kind) {
  switch (Kind) {
  case NetworkKind::Star:
    return "star";
  case NetworkKind::BubbleSort:
    return "bubble-sort";
  case NetworkKind::Transposition:
    return "TN";
  case NetworkKind::TranspositionTree:
    return "T-tree";
  case NetworkKind::Rotator:
    return "rotator";
  case NetworkKind::InsertionSelection:
    return "IS";
  case NetworkKind::MacroStar:
    return "MS";
  case NetworkKind::RotationStar:
    return "RS";
  case NetworkKind::CompleteRotationStar:
    return "complete-RS";
  case NetworkKind::MacroRotator:
    return "MR";
  case NetworkKind::RotationRotator:
    return "RR";
  case NetworkKind::CompleteRotationRotator:
    return "complete-RR";
  case NetworkKind::MacroIS:
    return "MIS";
  case NetworkKind::RotationIS:
    return "RIS";
  case NetworkKind::CompleteRotationIS:
    return "complete-RIS";
  }
  assert(false && "unknown network kind");
  return "?";
}

/// Adds the nucleus generators of \p Kind for boxes of size \p N, acting on
/// \p K symbols: T_i for the star-nucleus classes, I_i (and I_i^-1 for the
/// IS-nucleus classes) for the rotator/IS classes, i = 2..n+1.
static void addNucleus(GeneratorSet &Gens, NetworkKind Kind, unsigned K,
                       unsigned N) {
  for (unsigned I = 2; I <= N + 1; ++I) {
    switch (Kind) {
    case NetworkKind::MacroStar:
    case NetworkKind::RotationStar:
    case NetworkKind::CompleteRotationStar:
      Gens.add(makeTransposition(K, I));
      break;
    case NetworkKind::MacroRotator:
    case NetworkKind::RotationRotator:
    case NetworkKind::CompleteRotationRotator:
      Gens.add(makeInsertion(K, I));
      break;
    case NetworkKind::MacroIS:
    case NetworkKind::RotationIS:
    case NetworkKind::CompleteRotationIS:
      Gens.add(makeInsertion(K, I));
      Gens.add(makeSelection(K, I));
      break;
    default:
      assert(false && "not a multi-level super Cayley graph kind");
    }
  }
}

/// Adds the super generators of \p Kind: swaps S_i for the macro classes,
/// R and R^-1 for the rotation classes, all R^i for the complete-rotation
/// classes.
static void addSuper(GeneratorSet &Gens, NetworkKind Kind, unsigned K,
                     unsigned L, unsigned N) {
  switch (Kind) {
  case NetworkKind::MacroStar:
  case NetworkKind::MacroRotator:
  case NetworkKind::MacroIS:
    for (unsigned I = 2; I <= L; ++I)
      Gens.add(makeSwap(K, N, I));
    break;
  case NetworkKind::RotationStar:
  case NetworkKind::RotationRotator:
  case NetworkKind::RotationIS:
    Gens.add(makeRotation(K, N, 1));
    if (L > 2) // R^-1 = R when l = 2.
      Gens.add(makeRotation(K, N, -1));
    break;
  case NetworkKind::CompleteRotationStar:
  case NetworkKind::CompleteRotationRotator:
  case NetworkKind::CompleteRotationIS:
    for (unsigned I = 1; I != L; ++I)
      Gens.add(makeRotation(K, N, static_cast<int>(I)));
    break;
  default:
    assert(false && "not a multi-level super Cayley graph kind");
  }
}

SuperCayleyGraph SuperCayleyGraph::create(NetworkKind Kind, unsigned L,
                                          unsigned N) {
  assert(L >= 2 && N >= 1 && "a super Cayley graph needs l >= 2 boxes");
  unsigned K = L * N + 1;
  GeneratorSet Gens;
  addNucleus(Gens, Kind, K, N);
  addSuper(Gens, Kind, K, L, N);
  return SuperCayleyGraph(Kind, L, N, std::move(Gens));
}

SuperCayleyGraph SuperCayleyGraph::star(unsigned K) {
  assert(K >= 2 && "a star graph needs k >= 2");
  GeneratorSet Gens;
  for (unsigned I = 2; I <= K; ++I)
    Gens.add(makeTransposition(K, I));
  return SuperCayleyGraph(NetworkKind::Star, 1, K - 1, std::move(Gens));
}

SuperCayleyGraph SuperCayleyGraph::bubbleSort(unsigned K) {
  assert(K >= 2 && "a bubble-sort graph needs k >= 2");
  GeneratorSet Gens;
  for (unsigned I = 1; I + 1 <= K; ++I)
    Gens.add(makeAdjacentTransposition(K, I));
  return SuperCayleyGraph(NetworkKind::BubbleSort, 1, K - 1, std::move(Gens));
}

SuperCayleyGraph SuperCayleyGraph::transpositionNetwork(unsigned K) {
  assert(K >= 2 && "a transposition network needs k >= 2");
  GeneratorSet Gens;
  for (unsigned I = 1; I != K; ++I)
    for (unsigned J = I + 1; J <= K; ++J)
      Gens.add(makePairTransposition(K, I, J));
  return SuperCayleyGraph(NetworkKind::Transposition, 1, K - 1,
                          std::move(Gens));
}

SuperCayleyGraph SuperCayleyGraph::transpositionTree(
    unsigned K, const std::vector<std::pair<unsigned, unsigned>> &Edges) {
  assert(K >= 2 && Edges.size() == K - 1 && "a tree on k vertices has k-1 edges");
  // Union-find acyclicity/connectivity check.
  std::vector<unsigned> Root(K);
  for (unsigned I = 0; I != K; ++I)
    Root[I] = I;
  auto Find = [&Root](unsigned X) {
    while (Root[X] != X)
      X = Root[X] = Root[Root[X]];
    return X;
  };
  GeneratorSet Gens;
  for (auto [I, J] : Edges) {
    assert(I >= 1 && J >= 1 && I <= K && J <= K && I != J &&
           "tree edge out of range");
    unsigned A = Find(I - 1), B = Find(J - 1);
    assert(A != B && "transposition tree contains a cycle");
    Root[A] = B;
    Gens.add(makePairTransposition(K, std::min(I, J), std::max(I, J)));
  }
  return SuperCayleyGraph(NetworkKind::TranspositionTree, 1, K - 1,
                          std::move(Gens));
}

SuperCayleyGraph SuperCayleyGraph::rotator(unsigned K) {
  assert(K >= 2 && "a rotator graph needs k >= 2");
  GeneratorSet Gens;
  for (unsigned I = 2; I <= K; ++I)
    Gens.add(makeInsertion(K, I));
  return SuperCayleyGraph(NetworkKind::Rotator, 1, K - 1, std::move(Gens));
}

SuperCayleyGraph SuperCayleyGraph::insertionSelection(unsigned K) {
  assert(K >= 2 && "an IS network needs k >= 2");
  GeneratorSet Gens;
  for (unsigned I = 2; I <= K; ++I) {
    Gens.add(makeInsertion(K, I));
    Gens.add(makeSelection(K, I)); // I_2^-1 equals I_2 in action but stays
                                   // a parallel link (paper degree count).
  }
  return SuperCayleyGraph(NetworkKind::InsertionSelection, 1, K - 1,
                          std::move(Gens));
}

uint64_t SuperCayleyGraph::numNodes() const { return factorial(K); }

std::string SuperCayleyGraph::name() const {
  switch (Kind) {
  case NetworkKind::Star:
  case NetworkKind::BubbleSort:
  case NetworkKind::Transposition:
  case NetworkKind::TranspositionTree:
  case NetworkKind::Rotator:
  case NetworkKind::InsertionSelection:
    return networkKindName(Kind) + "(" + std::to_string(K) + ")";
  default:
    return networkKindName(Kind) + "(" + std::to_string(L) + "," +
           std::to_string(N) + ")";
  }
}
