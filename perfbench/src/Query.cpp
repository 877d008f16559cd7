//===- perfbench/src/Query.cpp - query_serving ----------------------------===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Query batch -> replies on MS(2,4) (k = 9, 362,880 nodes; the graph is
/// never built by the serving side). One closed-loop client submits
/// fixed-size batches of mixed queries, the next batch only after the
/// previous one's replies are in. Route queries go to a table-free engine
/// (the Theorem 1-3 lifted router); distance queries go to an engine
/// serving from a TableStore that set-up builds, saves and maps back. 80%
/// of pairs draw their relative label from a hot set, which is what lets
/// the engine's route cache matter; the rest are uniform.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "perm/Lehmer.h"
#include "query/QueryEngine.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cstdio>
#include <memory>

using namespace perfbench;
using namespace scg;

namespace {

struct QueryShape {
  unsigned L, N;          ///< MS(L, N).
  unsigned HotLabels;     ///< size of the hot relative-label set.
  unsigned BatchSize;     ///< queries per batch.
  unsigned MinBatches;    ///< timed batches of an untraced run, at least.
  unsigned WarmupBatches; ///< untimed batches that fill the cache.
  unsigned TracedBatches; ///< batches per traced-run phase.
  unsigned StretchPairs;  ///< uniform pairs for the lifted stretch.
};

QueryShape shapeFor(const Options &Opts) {
  if (Opts.Tiny)
    return {2, 2, 16, 32, 24, 8, 40, 200};
  return {2, 4, 4096, 256, 192, 2000, 1000, 20000};
}

constexpr double HotShare = 0.8;

/// The serving state set-up produces.
struct Serving {
  std::shared_ptr<const TableStore> Table;
  std::unique_ptr<QueryEngine> Routes;    ///< table-free (lifted router).
  std::unique_ptr<QueryEngine> Distances; ///< table-backed.
};

Serving setUpOnce(Context &C, const SuperCayleyGraph &Net,
                  const std::string &Path) {
  Serving S;
  {
    Tracer::Scope Span(C.Trace, "query.table_build");
    TableStore Built = TableStore::build(Net);
    Span.close();
    Tracer::Scope Save(C.Trace, "query.table_save");
    Built.save(Path);
  }
  {
    Tracer::Scope Span(C.Trace, "query.table_load");
    S.Table = std::make_shared<const TableStore>(TableStore::load(Path));
  }
  Tracer::Scope Span(C.Trace, "query.engines");
  S.Routes = std::make_unique<QueryEngine>(Net);
  S.Distances = std::make_unique<QueryEngine>(Net);
  S.Distances->attachTable(S.Table);
  return S;
}

Serving setUp(Context &C, const SuperCayleyGraph &Net, Samples &Setup) {
  const std::string Path = C.Opts.WorkDir + "/query-table.bin";
  Serving S;
  while (moreSetups(C.Opts, Setup)) {
    S = Serving();
    double T0 = now();
    S = setUpOnce(C, Net, Path);
    Setup.add(now() - T0);
  }
  std::remove(Path.c_str()); // the mapping outlives the file.

  // The loaded table must be the exact distance row: pinned checksum.
  Checks::Op Op(C.Check);
  const TableStore &T = *S.Table;
  Op.expect(T.isMapped() && T.covers(Net), "table not mapped for network");
  uint64_t Hash = fnv1a(nullptr, 0);
  unsigned Diameter = 0;
  for (uint64_t Rank = 0; Rank != T.numNodes(); ++Rank) {
    uint8_t D = T.distanceByRank(Rank);
    Hash = fnv1a(&D, 1, Hash);
    if (D != TableUnreachable)
      Diameter = std::max<unsigned>(Diameter, D);
  }
  Op.golden("query.table_checksum", fmt(Hash), /*SeedIndependent=*/true);
  Op.golden("query.table_diameter", fmt(uint64_t(Diameter)), true);
  return S;
}

/// The client's query stream: a pure function of its seed.
class QueryStream {
public:
  QueryStream(uint64_t Seed, unsigned K, const std::vector<Permutation> &Hot)
      : R(Seed), K(K), Hot(Hot) {}

  Permutation randomLabel() {
    std::vector<uint8_t> W = R.permutation(K);
    return Permutation::fromWord(W.data(), K);
  }

  /// One batch of \p Size queries, each a route query with probability
  /// \p RouteShare (1 = routes only); the hot set supplies the relative
  /// label with probability \p HotP.
  void next(unsigned Size, double RouteShare, double HotP,
            std::vector<PairQuery> &Routes, std::vector<PairQuery> &Dists) {
    Routes.clear();
    Dists.clear();
    for (unsigned I = 0; I != Size; ++I) {
      bool IsRoute = R.unit() < RouteShare;
      Permutation Src = randomLabel();
      Permutation Rel =
          R.unit() < HotP ? Hot[R.below(Hot.size())] : randomLabel();
      Permutation Dst = Src.compose(Rel);
      (IsRoute ? Routes : Dists).push_back({std::move(Src), std::move(Dst)});
    }
  }

private:
  Rng R;
  unsigned K;
  const std::vector<Permutation> &Hot;
};

/// Checks each route reply from outside: its hops, applied to Src through
/// the public generator actions, must reach Dst. Returns the hop total.
uint64_t checkRoutes(Context &C, const SuperCayleyGraph &Net,
                     const std::vector<PairQuery> &Qs,
                     const std::vector<RouteReply> &Rs) {
  Checks::Op Size(C.Check);
  if (!Size.expect(Qs.size() == Rs.size(), "route reply count"))
    return 0;
  uint64_t Hops = 0;
  Permutation Cur;
  for (size_t I = 0; I != Qs.size(); ++I) {
    Checks::Op Op(C.Check);
    Cur = Qs[I].Src;
    bool InRange = true;
    for (GenIndex G : Rs[I].Hops) {
      if (!(InRange = G < Net.degree()))
        break;
      Net.neighborInto(Cur, G, Cur);
    }
    Op.expect(InRange && Cur == Qs[I].Dst,
              "route reply does not reach its destination");
    Op.expect(!Rs[I].FromTable, "route reply came from a table");
    Hops += Rs[I].length();
  }
  return Hops;
}

/// Checks each distance reply against the loaded table, whose contents
/// the set-up pinned by checksum. Returns the distance total.
uint64_t checkDistances(Context &C, const TableStore &T,
                        const std::vector<PairQuery> &Qs,
                        const std::vector<DistanceReply> &Rs) {
  Checks::Op Size(C.Check);
  if (!Size.expect(Qs.size() == Rs.size(), "distance reply count"))
    return 0;
  uint64_t Sum = 0;
  for (size_t I = 0; I != Qs.size(); ++I) {
    Checks::Op Op(C.Check);
    Permutation Rel = Qs[I].Src.inverse().compose(Qs[I].Dst);
    uint32_t Want =
        Rel.isIdentity() ? 0 : T.distanceByRank(rankPermutation(Rel));
    Op.expect(Rs[I].Distance == Want && Rs[I].Exact,
              "distance reply differs from the table");
    Sum += Rs[I].Distance;
  }
  return Sum;
}

/// Timings of one stretch of served batches.
struct Served {
  Samples Batch; ///< submit to last reply, per batch.
  Samples Route; ///< the routeBatch call, per batch.
  Samples Dist;  ///< the distanceBatch call, per batch.
  uint64_t RouteReplies = 0, DistReplies = 0, RouteHops = 0;
};

/// Serves batches from \p Stream while \p More() holds. With a tracer,
/// every batch and both calls in it are spans.
template <typename MoreFn>
Served serve(Context &C, const SuperCayleyGraph &Net, const Serving &S,
             QueryStream &Stream, unsigned BatchSize, Tracer *T,
             MoreFn More) {
  Served Out;
  std::vector<PairQuery> RouteQs, DistQs;
  while (More(Out)) {
    Stream.next(BatchSize, 0.5, HotShare, RouteQs, DistQs);
    std::vector<RouteReply> RouteRs;
    std::vector<DistanceReply> DistRs;
    double T0, T1, T2;
    if (T) {
      Tracer::Scope Batch(*T, "query.batch");
      T0 = now();
      {
        Tracer::Scope Span(*T, "query.route_call");
        RouteRs = S.Routes->routeBatch(RouteQs);
      }
      T1 = now();
      {
        Tracer::Scope Span(*T, "query.distance_call");
        DistRs = S.Distances->distanceBatch(DistQs);
      }
      T2 = now();
    } else {
      T0 = now();
      RouteRs = S.Routes->routeBatch(RouteQs);
      T1 = now();
      DistRs = S.Distances->distanceBatch(DistQs);
      T2 = now();
    }
    Out.Batch.add(T2 - T0);
    Out.Route.add(T1 - T0);
    Out.Dist.add(T2 - T1);
    Out.RouteReplies += RouteRs.size();
    Out.DistReplies += DistRs.size();
    Out.RouteHops += checkRoutes(C, Net, RouteQs, RouteRs);
    checkDistances(C, *S.Table, DistQs, DistRs);
  }
  return Out;
}

/// Route-only batches at the pool's current size: replies per second.
double routeQps(Context &C, const SuperCayleyGraph &Net, const Serving &S,
                QueryStream &Stream, const QueryShape &Shape) {
  std::vector<PairQuery> Qs, Unused;
  double Seconds = 0;
  uint64_t Replies = 0;
  for (unsigned B = 0; B != Shape.TracedBatches; ++B) {
    Stream.next(Shape.BatchSize, 1.0, HotShare, Qs, Unused);
    double T0 = now();
    std::vector<RouteReply> Rs = S.Routes->routeBatch(Qs);
    Seconds += now() - T0;
    Replies += Rs.size();
    checkRoutes(C, Net, Qs, Rs);
  }
  return double(Replies) / Seconds;
}

void runTraced(Context &C, const SuperCayleyGraph &Net, const Serving &S,
               const QueryShape &Shape, const std::vector<Permutation> &Hot) {
  const unsigned K = Net.numSymbols();
  QueryStream Stream(deriveSeed(C.Opts.Seed, 2), K, Hot);
  auto Batches = [](unsigned N) {
    return [N](const Served &Out) { return Out.Batch.size() < N; };
  };
  serve(C, Net, S, Stream, Shape.BatchSize, nullptr,
        Batches(Shape.WarmupBatches));
  Served Untraced = serve(C, Net, S, Stream, Shape.BatchSize, nullptr,
                          Batches(Shape.TracedBatches));
  Served Traced = serve(C, Net, S, Stream, Shape.BatchSize, &C.Trace,
                        Batches(Shape.TracedBatches));
  MetricsRegistry Cache;
  S.Routes->publishMetrics(Cache);

  // Thread scaling: the same distribution at the default pool size and
  // at one thread, each on fresh queries so neither inherits the other's
  // cache entries.
  QueryStream Wide(deriveSeed(C.Opts.Seed, 3), K, Hot);
  QueryStream Narrow(deriveSeed(C.Opts.Seed, 4), K, Hot);
  double QpsWide = routeQps(C, Net, S, Wide, Shape);
  setGlobalThreadCount(1);
  double QpsOne = routeQps(C, Net, S, Narrow, Shape);
  setGlobalThreadCount(0);

  // Lifted stretch: mean lifted route length over mean exact distance on
  // the same uniform pairs (the Theorem 1-3 slowdown).
  QueryStream Uniform(deriveSeed(C.Opts.Seed, 5), K, Hot);
  std::vector<PairQuery> Pairs, Unused;
  Uniform.next(Shape.StretchPairs, 1.0, 0.0, Pairs, Unused);
  uint64_t Lifted = checkRoutes(C, Net, Pairs, S.Routes->routeBatch(Pairs));
  uint64_t Exact =
      checkDistances(C, *S.Table, Pairs, S.Distances->distanceBatch(Pairs));
  const double Stretch = double(Lifted) / double(Exact);
  const double MeanHops =
      double(Traced.RouteHops) / double(Traced.RouteReplies);
  {
    Checks::Op Op(C.Check);
    Op.expect(Lifted >= Exact, "lifted routes shorter than exact distances");
    Op.golden("query.lifted_stretch", fmt(Stretch));
    Op.golden("query.mean_route_hops", fmt(MeanHops));
  }

  auto Value = [&](const char *Name) {
    const Metric *Found = Cache.find(Name);
    return Found ? Found->value() : 0.0;
  };
  Metrics &M = C.Out;
  M.set("query.batch_ms", Traced.Batch.median() * 1e3);
  M.set("query.route_qps", double(Traced.RouteReplies) /
                               C.Trace.total("query.route_call"));
  M.set("query.distance_qps", double(Traced.DistReplies) /
                                  C.Trace.total("query.distance_call"));
  M.set("trace.overhead_s", Traced.Batch.mean() - Untraced.Batch.mean());
  M.set("query.route_qps_1t", QpsOne);
  M.set("query.thread_scaling", QpsWide / QpsOne);
  M.set("query.cache_hits", Value("query.cache.hits"));
  M.set("query.cache_misses", Value("query.cache.misses"));
  M.set("query.cache_evictions", Value("query.cache.evictions"));
  M.set("query.cache_hit_ratio", Value("query.cache.hit_rate"));
  M.set("query.mean_route_hops", MeanHops);
  M.set("query.lifted_stretch", Stretch);
  M.set("query.table_build_s", C.Trace.total("query.table_build"));
  M.set("query.table_load_s", C.Trace.total("query.table_load"));
}

void runUntraced(Context &C, const SuperCayleyGraph &Net, const Serving &S,
                 const QueryShape &Shape, const std::vector<Permutation> &Hot) {
  QueryStream Stream(deriveSeed(C.Opts.Seed, 2), Net.numSymbols(), Hot);
  serve(C, Net, S, Stream, Shape.BatchSize, nullptr,
        [&](const Served &Out) {
          return Out.Batch.size() < Shape.WarmupBatches;
        });
  const double Start = now();
  Served Out = serve(C, Net, S, Stream, Shape.BatchSize, nullptr,
                     [&](const Served &Out) {
                       return Out.Batch.size() < Shape.MinBatches ||
                              now() - Start < C.Opts.Seconds;
                     });
  // call_s is the whole batch, which the route half dominates; round_s is
  // its distance half alone, so a table-serving regression shows too.
  C.Out.set("call_s", Out.Batch.median());
  C.Out.set("round_s", Out.Dist.median());
  Metrics::report("query.batch_ms", Out.Batch, "ms", 1e3);
  Metrics::report("query.route_call_ms", Out.Route, "ms", 1e3);
  Metrics::report("query.distance_call_ms", Out.Dist, "ms", 1e3);
  Metrics::report("query.route_qps",
                  double(Out.RouteReplies) / Out.Route.sum(), "1/s");
  Metrics::report("query.distance_qps",
                  double(Out.DistReplies) / Out.Dist.sum(), "1/s");
}

} // namespace

void perfbench::runQuery(Context &C) {
  const QueryShape Shape = shapeFor(C.Opts);
  const SuperCayleyGraph Net =
      SuperCayleyGraph::create(NetworkKind::MacroStar, Shape.L, Shape.N);
  Samples Setup;
  Serving S = setUp(C, Net, Setup);
  C.Out.set("setup_s", Setup.median());
  Metrics::report("setup_s", Setup, "s");

  // The hot relative labels, drawn from the run seed.
  Rng R(deriveSeed(C.Opts.Seed, 6));
  std::vector<Permutation> Hot;
  for (unsigned I = 0; I != Shape.HotLabels; ++I) {
    std::vector<uint8_t> W = R.permutation(Net.numSymbols());
    Hot.push_back(Permutation::fromWord(W.data(), Net.numSymbols()));
  }
  if (C.Opts.Trace)
    runTraced(C, Net, S, Shape, Hot);
  else
    runUntraced(C, Net, S, Shape, Hot);
}
