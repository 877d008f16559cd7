//===- embedding/Embedding.h - Embedding framework + metrics ---*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Graph embeddings into super Cayley graphs, with the four quality metrics
/// Section 5 quotes:
///
///   load       max number of guest nodes mapped onto one host node
///   expansion  host nodes / guest nodes
///   dilation   max host-path length over guest edges
///   congestion max number of guest-edge paths crossing one directed host
///              link (each directed guest edge routed once, matching the
///              counting that yields congestion max(2n, l) in Section 3)
///
/// The guest is an explicit Csr graph; the host is a SuperCayleyGraph
/// descriptor (never materialized: congestion buckets by (Lehmer rank,
/// link)). Routes
/// are produced on demand by a router callback so that template-generated
/// embeddings need not store one path per edge.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_EMBEDDING_EMBEDDING_H
#define SCG_EMBEDDING_EMBEDDING_H

#include "graph/Csr.h"
#include "routing/Path.h"

#include <functional>

namespace scg {

/// An embedding of a guest graph into a host super Cayley graph.
struct Embedding {
  const SuperCayleyGraph *Host = nullptr;
  /// Guest node -> host label.
  std::vector<Permutation> NodeMap;
  /// Routes the image of guest edge (U, V); must connect NodeMap[U] to
  /// NodeMap[V] in the host.
  std::function<GeneratorPath(NodeId U, NodeId V)> Route;
};

/// Measured embedding quality.
struct EmbeddingMetrics {
  bool Valid = false; ///< every route connects its mapped endpoints.
  unsigned Load = 0;
  double Expansion = 0.0;
  unsigned Dilation = 0;
  uint64_t Congestion = 0;
  double AverageRouteLength = 0.0;
};

/// Routes every directed guest edge and accumulates the metrics. Asserts
/// the host has at most 12 symbols (ranks must fit the congestion buckets).
EmbeddingMetrics measureEmbedding(const Csr &Guest, const Embedding &E);

/// Convenience: an identity node map on all of S_k (guest nodes are Lehmer
/// ranks of host labels), used by the star->SCG and TN->SCG embeddings.
std::vector<Permutation> identityNodeMap(unsigned K);

} // namespace scg

#endif // SCG_EMBEDDING_EMBEDDING_H
