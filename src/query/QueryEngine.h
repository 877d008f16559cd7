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
/// shortest answer from a lifted upper bound. Every route is computed, with
/// no shared state: a route is O(k) work on one 16-byte label, cheaper than
/// a locked lookup. The routers append into the caller's buffer (a reply's
/// one exact-size vector, or a batch chunk's arena), and the star word
/// itself goes through a stack buffer. Batch entry points spread chunks,
/// whose bounds depend only on the batch length, over the global
/// ThreadPool with results in submission order, so batched parallel
/// answers are byte-identical to serial ones. Telemetry flows through
/// MetricsRegistry as `query.*` counters, which each chunk adds once.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_QUERY_QUERYENGINE_H
#define SCG_QUERY_QUERYENGINE_H

#include "perm/Permutation.h"
#include "query/TableStore.h"

#include <atomic>
#include <cassert>
#include <limits>
#include <memory>
#include <span>
#include <vector>

namespace scg {

class MetricsRegistry;

/// Distance value for an unreachable destination.
constexpr uint32_t UnreachableDistance = std::numeric_limits<uint32_t>::max();

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

/// The serving engine for one network descriptor. Thread-safe for
/// concurrent queries: the state is immutable after construction /
/// attachTable, and the counters are relaxed atomics.
class QueryEngine {
public:
  /// Queries per batch chunk: enough that a chunk outweighs its claim on
  /// the pool's shared cursor (EXPERIMENTS.md E38 sweeps 8 to 64).
  static constexpr uint64_t BatchChunk = 16;

  /// Builds a table-free engine for \p Net. Throws std::invalid_argument
  /// when k > 16 (the engine serves inline labels). Families without a
  /// table-free router (supportsTableFree) answer only once attachTable
  /// supplies a table.
  explicit QueryEngine(SuperCayleyGraph Net);

  /// True when the engine can answer without a table: star, bubble-sort,
  /// rotator, and the SDC star-emulating classes.
  static bool supportsTableFree(const SuperCayleyGraph &Net);

  /// Attaches an exact distance table. Throws std::invalid_argument when
  /// \p Table is null or does not cover network(). Shared ownership so
  /// many engines (or processes via mmap) serve from one table. Not
  /// thread-safe against in-flight queries.
  void attachTable(std::shared_ptr<const TableStore> Table);

  bool tableBacked() const { return Table != nullptr; }
  const SuperCayleyGraph &network() const { return Net; }

  /// d(Src, Dst), Cayley-normalized to the relative label.
  ///
  /// Every distance and route entry point (batch forms included) throws
  /// std::invalid_argument for a label that is not on the engine's k
  /// symbols, and std::logic_error for a non-identity label when the
  /// family has no table-free router (supportsTableFree) and no table is
  /// attached. The route entry points also throw when such a family's
  /// table descent finds no route (a faulted table).
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
  /// boundaries depend only on the batch length; each chunk appends its
  /// routes straight into its own arena), routes indexed like \p Rels and
  /// byte-identical at every thread count.
  RouteArena routeBatchRelative(std::span<const Permutation> Rels) const;

  /// Batched forms: BatchChunk queries per chunk over the global
  /// ThreadPool (SCG_THREADS=1 forces serial), replies indexed like
  /// \p Queries and byte-identical at every thread count.
  std::vector<DistanceReply>
  distanceBatch(std::span<const PairQuery> Queries) const;
  std::vector<RouteReply> routeBatch(std::span<const PairQuery> Queries) const;

  /// Publishes the `query.{distance,route}.count` and
  /// `query.answers.{table,table_free}` counters.
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

  /// Answers counted by where they came from; a batch chunk or a single
  /// query keeps one locally and adds it to the shared counters once.
  struct Tally {
    uint64_t Table = 0, TableFree = 0;
  };
  void addTally(const Tally &T) const;

  /// Throws std::invalid_argument unless \p Label is on the engine's k
  /// symbols.
  void checkLabel(const Permutation &Label) const;

  /// Src^-1 o Dst, after checkLabel on both.
  Permutation relativeLabel(const Permutation &Src,
                            const Permutation &Dst) const;

  /// The reply flags of one computed route.
  struct RouteFlags {
    bool Exact = false, FromTable = false;
  };

  DistanceReply distanceRel(const Permutation &Rel, Tally &T) const;
  RouteReply routeRel(const Permutation &Rel, Tally &T) const;
  /// Appends the route for \p Rel to \p Hops and counts it in \p T.
  RouteFlags computeRouteRel(const Permutation &Rel,
                             std::vector<GenIndex> &Hops, Tally &T) const;
  /// Appends the table-descent route for \p Rel at table distance \p D;
  /// returns false, leaving \p Hops as it was, when the descent fails.
  bool tableRouteRel(const Permutation &Rel, uint8_t D,
                     std::vector<GenIndex> &Hops) const;
  void freeRouteRel(const Permutation &Rel,
                    std::vector<GenIndex> &Hops) const;
  bool routerIsExact() const {
    return Router == FreeRouter::StarGreedy ||
           Router == FreeRouter::BubbleSort;
  }

  SuperCayleyGraph Net;
  std::shared_ptr<const TableStore> Table;
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
