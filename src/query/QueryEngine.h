//===- query/QueryEngine.h - Table-free batched route serving --*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Routing-as-a-service: answers distance and route queries for star
/// graphs and super Cayley graphs WITHOUT constructing the k! graph.
/// Every analysis engine in this repository materializes adjacency; the
/// paper's point is that routing is computable locally from the
/// permutation label in O(k) -- which is the only thing that scales to
/// k where the graph cannot exist in memory. It is also the library's only
/// router: total exchange, permutation routing and the traffic driver
/// batch their relative labels through routeBatchRelative.
///
/// Cayley symmetry does the heavy lifting: route and distance from U to V
/// depend only on the relative label R = U^-1 o V (left translation is an
/// automorphism), so the engine normalizes every pair to R and serves
/// from rank space:
///
///  * Table-free (any k <= 16): O(k) greedy rank-space routing on the
///    inline-label Permutation kernels -- exact optimal star routing
///    (send-the-front-symbol-home), exact bubble-sort routing (adjacent-
///    swap sort, length = inversions), rotator insertion-sort routes, and
///    Theorem 1-3 star-route lifting for the SDC-emulating SCG classes
///    (MS/RS/complete-RS/IS/MIS/RIS/complete-RIS, TN).
///
///  * Table-backed (k <= 10): an attached TableStore -- the identity-row
///    distance table, typically mmap-ed and shared between processes --
///    serves exact distances as one rank + one byte load, and exact
///    shortest routes by greedy distance descent, for every family
///    including the ones with no closed-form router.
///
/// Replies carry (Exact, FromTable) so callers can tell a certified
/// shortest answer from a lifted upper bound. A sharded LRU SegmentCache
/// memoizes hot relative labels; batch entry points spread chunks over
/// the global ThreadPool with results in submission order, so batched
/// parallel answers are byte-identical to serial ones (the cache can only
/// change latency, never an answer). Telemetry flows through
/// MetricsRegistry as `query.*` counters.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_QUERY_QUERYENGINE_H
#define SCG_QUERY_QUERYENGINE_H

#include "query/SegmentCache.h"
#include "query/TableStore.h"

#include <atomic>
#include <cassert>
#include <memory>
#include <span>

namespace scg {

class MetricsRegistry;

/// One source/destination query; labels must be on the engine's k symbols.
struct PairQuery {
  Permutation Src, Dst;
};

/// Reply to a distance query. Distance is UnreachableDistance when a
/// (faulted) table certifies no path.
struct DistanceReply {
  uint32_t Distance = 0;
  bool Exact = false;     ///< certified shortest (closed form or table).
  bool FromTable = false; ///< served from the attached TableStore.
  bool operator==(const DistanceReply &) const = default;
};

/// Reply to a route query: generator indices of a valid route (hop h goes
/// along generators()[Hops[h]]).
struct RouteReply {
  std::vector<GenIndex> Hops;
  bool Exact = false;     ///< certified shortest route.
  bool FromTable = false; ///< derived by table distance descent.
  bool operator==(const RouteReply &) const = default;

  unsigned length() const { return unsigned(Hops.size()); }
};

/// Flat reply to a batched route query: route I occupies
/// Hops[Offsets[I], Offsets[I+1]). One contiguous buffer for the whole
/// batch instead of one std::vector per route, so consumers that retain
/// many routes (the traffic driver keeps one per distinct relative label
/// and lets every injection index into it) hold a single allocation.
struct RouteArena {
  std::vector<GenIndex> Hops;
  std::vector<uint32_t> Offsets; ///< size() + 1 offsets into Hops.

  size_t size() const { return Offsets.empty() ? 0 : Offsets.size() - 1; }

  /// The hops of route \p I as a view into the arena.
  std::span<const GenIndex> route(size_t I) const {
    assert(I + 1 < Offsets.size() && "route index out of range");
    return std::span<const GenIndex>(Hops).subspan(Offsets[I],
                                                   Offsets[I + 1] -
                                                       Offsets[I]);
  }

  unsigned length(size_t I) const {
    assert(I + 1 < Offsets.size() && "route index out of range");
    return Offsets[I + 1] - Offsets[I];
  }
};

/// Engine construction knobs.
struct QueryEngineOptions {
  /// Total SegmentCache entries (0 disables caching).
  size_t CacheCapacity = 1 << 15;
  /// Cache shard count (rounded up to a power of two).
  unsigned CacheShards = 8;
};

/// The serving engine for one network descriptor. Thread-safe for
/// concurrent queries (the cache is internally sharded and the rest of
/// the state is immutable after construction / attachTable).
class QueryEngine {
public:
  /// Builds a table-free engine for \p Net; requires k <= 16 (inline
  /// labels) and a supported family (supportsTableFree) -- attachTable
  /// lifts the family restriction.
  explicit QueryEngine(SuperCayleyGraph Net, QueryEngineOptions Opts = {});

  /// True when the engine can answer without a table: star, bubble-sort,
  /// rotator, and the SDC star-emulating classes.
  static bool supportsTableFree(const SuperCayleyGraph &Net);

  /// Attaches an exact distance table; asserts Table->covers(network()).
  /// Shared ownership so many engines (or processes via mmap) serve from
  /// one table. Not thread-safe against in-flight queries.
  void attachTable(std::shared_ptr<const TableStore> Table);

  bool tableBacked() const { return Table != nullptr; }
  const SuperCayleyGraph &network() const { return Net; }

  /// d(Src, Dst), Cayley-normalized to the relative label.
  ///
  /// Every distance and route entry point (batch forms included) throws
  /// std::logic_error for a non-identity label when the family has no
  /// table-free router (supportsTableFree) and no table is attached. The
  /// route entry points also throw when such a family's table descent
  /// finds no route (a faulted table).
  DistanceReply distance(const Permutation &Src,
                         const Permutation &Dst) const;

  /// A route Src -> Dst as generator indices; exact shortest when the
  /// reply says so, a valid bounded-slowdown route otherwise.
  RouteReply route(const Permutation &Src, const Permutation &Dst) const;

  /// Routes for relative labels \p Rel = Src^-1 o Dst directly -- the
  /// normalization route() performs internally -- into one flat arena.
  /// Vertex-transitive callers that already dedupe pairs by relative label
  /// (the traffic driver's batched setup) enter here and skip the per-pair
  /// inverse + compose. Chunked over the global ThreadPool (chunk
  /// boundaries depend only on the batch length), routes indexed like
  /// \p Rels and byte-identical at every thread count.
  RouteArena routeBatchRelative(std::span<const Permutation> Rels) const;

  /// Batched forms: chunked over the global ThreadPool (SCG_THREADS=1
  /// forces serial), replies indexed like \p Queries and byte-identical
  /// at every thread count.
  std::vector<DistanceReply>
  distanceBatch(std::span<const PairQuery> Queries) const;
  std::vector<RouteReply> routeBatch(std::span<const PairQuery> Queries) const;

  const SegmentCache &cache() const { return Cache; }
  void clearCache() const { Cache.clear(); }

  /// Publishes `query.{distance,route}.count`, `query.answers.{table,
  /// table_free}` counters plus the cache's `query.cache.*` telemetry.
  void publishMetrics(MetricsRegistry &M) const;

private:
  /// How table-free routes are computed for this family.
  enum class FreeRouter {
    None,       ///< no closed-form router; a table is required.
    StarGreedy, ///< optimal star routing (exact).
    BubbleSort, ///< adjacent-swap sort (exact, length = inversions).
    Rotator,    ///< insertion-sort routing (valid, not optimal).
    Lifted,     ///< Theorem 1-3 star-route lifting (valid, not optimal).
  };

  DistanceReply distanceRel(const Permutation &Rel) const;
  RouteReply routeRel(const Permutation &Rel) const;
  std::vector<GenIndex> computeRouteRel(const Permutation &Rel) const;
  std::vector<GenIndex> tableRouteRel(const Permutation &Rel) const;
  std::vector<GenIndex> freeRouteRel(const Permutation &Rel) const;
  bool routeIsExact(const Permutation &Rel) const;

  SuperCayleyGraph Net;
  std::shared_ptr<const TableStore> Table;
  mutable SegmentCache Cache;
  FreeRouter Router = FreeRouter::None;
  std::vector<Permutation> InvGens; ///< generator inverse actions.
  /// Star/rotator dimension -> generator index (index 0..k, dims 2-based;
  /// bubble-sort uses positions 1..k-1).
  std::vector<GenIndex> DimToGen;
  /// Lifted engines: per star dimension, the Theorem 1-3 template word.
  std::vector<std::vector<GenIndex>> DimTemplates;

  mutable std::atomic<uint64_t> DistanceQueries{0};
  mutable std::atomic<uint64_t> RouteQueries{0};
  mutable std::atomic<uint64_t> TableAnswers{0};
  mutable std::atomic<uint64_t> TableFreeAnswers{0};
};

} // namespace scg

#endif // SCG_QUERY_QUERYENGINE_H
