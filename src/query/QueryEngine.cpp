//===- query/QueryEngine.cpp - Table-free batched route serving ----------===//

#include "query/QueryEngine.h"

#include "emulation/SdcEmulation.h"
#include "graph/Bfs.h"
#include "perm/Lehmer.h"
#include "routing/RotatorRouter.h"
#include "routing/StarRouter.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <stdexcept>

using namespace scg;

namespace {

/// Finds the link of \p Net matching generator \p G, asserting presence
/// (the factories below only produce generators the family defines).
GenIndex requireLink(const SuperCayleyGraph &Net, const Generator &G) {
  std::optional<GenIndex> Index = Net.generators().findLink(G);
  assert(Index && "family generator is not a link of this network");
  return *Index;
}

/// Number of inversions of \p P: the exact bubble-sort-graph distance
/// (Coxeter length in the adjacent-transposition generators).
unsigned inversionCount(const Permutation &P) {
  unsigned Inv = 0;
  for (unsigned I = 0; I + 1 < P.size(); ++I)
    for (unsigned J = I + 1; J != P.size(); ++J)
      Inv += P[I] > P[J];
  return Inv;
}

} // namespace

bool QueryEngine::supportsTableFree(const SuperCayleyGraph &Net) {
  switch (Net.kind()) {
  case NetworkKind::BubbleSort:
  case NetworkKind::Rotator:
    return true;
  default:
    return supportsStarEmulation(Net);
  }
}

QueryEngine::QueryEngine(SuperCayleyGraph Network, QueryEngineOptions Opts)
    : Net(std::move(Network)), Cache(Opts.CacheCapacity, Opts.CacheShards) {
  unsigned K = Net.numSymbols();
  assert(K <= Permutation::InlineCapacity &&
         "the query engine serves the inline-label regime (k <= 16)");
  InvGens.reserve(Net.generators().size());
  for (const Generator &G : Net.generators())
    InvGens.push_back(G.Sigma.inverse());

  switch (Net.kind()) {
  case NetworkKind::Star:
    Router = FreeRouter::StarGreedy;
    DimToGen.assign(K + 1, 0);
    for (unsigned J = 2; J <= K; ++J)
      DimToGen[J] = requireLink(Net, makeTransposition(K, J));
    break;
  case NetworkKind::BubbleSort:
    Router = FreeRouter::BubbleSort;
    DimToGen.assign(K, 0); // indexed by position 1..k-1.
    for (unsigned I = 1; I != K; ++I)
      DimToGen[I] = requireLink(Net, makeAdjacentTransposition(K, I));
    break;
  case NetworkKind::Rotator:
    Router = FreeRouter::Rotator;
    DimToGen.assign(K + 1, 0);
    for (unsigned J = 2; J <= K; ++J)
      DimToGen[J] = requireLink(Net, makeInsertion(K, J));
    break;
  default:
    if (supportsStarEmulation(Net)) {
      // Theorems 1-3: a fixed generator word per star dimension whose net
      // effect is T_j; lifting a star route concatenates the templates.
      Router = FreeRouter::Lifted;
      DimTemplates.resize(K + 1);
      for (unsigned J = 2; J <= K; ++J)
        DimTemplates[J] = starDimensionPath(Net, J).hops();
    } else {
      Router = FreeRouter::None; // table-only family (MR/RR/...).
    }
    break;
  }
}

void QueryEngine::attachTable(std::shared_ptr<const TableStore> NewTable) {
  assert(NewTable && NewTable->covers(Net) &&
         "table does not describe this network");
  Table = std::move(NewTable);
  // Cached routes were computed under the previous configuration; drop them
  // so every key's (Hops, Exact, FromTable) stays a pure function of the
  // current one.
  Cache.clear();
}

//===----------------------------------------------------------------------===//
// Serving: everything funnels through the relative label Rel = Src^-1 o Dst.
//===----------------------------------------------------------------------===//

DistanceReply QueryEngine::distance(const Permutation &Src,
                                    const Permutation &Dst) const {
  assert(Src.size() == Net.numSymbols() && Dst.size() == Net.numSymbols() &&
         "query labels must be on the engine's k symbols");
  DistanceQueries.fetch_add(1, std::memory_order_relaxed);
  return distanceRel(Src.inverse().compose(Dst));
}

RouteReply QueryEngine::route(const Permutation &Src,
                              const Permutation &Dst) const {
  assert(Src.size() == Net.numSymbols() && Dst.size() == Net.numSymbols() &&
         "query labels must be on the engine's k symbols");
  RouteQueries.fetch_add(1, std::memory_order_relaxed);
  return routeRel(Src.inverse().compose(Dst));
}

DistanceReply QueryEngine::distanceRel(const Permutation &Rel) const {
  if (Rel.isIdentity()) {
    TableFreeAnswers.fetch_add(1, std::memory_order_relaxed);
    return {0, /*Exact=*/true, /*FromTable=*/false};
  }
  if (Table) {
    TableAnswers.fetch_add(1, std::memory_order_relaxed);
    uint8_t B = Table->distanceByRank(rankPermutation(Rel));
    uint32_t D = B == TableUnreachable ? UnreachableDistance : uint32_t(B);
    return {D, /*Exact=*/true, /*FromTable=*/true};
  }
  switch (Router) {
  case FreeRouter::StarGreedy:
    TableFreeAnswers.fetch_add(1, std::memory_order_relaxed);
    return {starDistance(Rel), /*Exact=*/true, /*FromTable=*/false};
  case FreeRouter::BubbleSort:
    TableFreeAnswers.fetch_add(1, std::memory_order_relaxed);
    return {inversionCount(Rel), /*Exact=*/true, /*FromTable=*/false};
  case FreeRouter::Rotator:
  case FreeRouter::Lifted:
  case FreeRouter::None: // freeRouteRel throws.
    break;
  }
  // No closed-form distance: the route length is a certified upper bound.
  return {routeRel(Rel).length(), /*Exact=*/false, /*FromTable=*/false};
}

RouteReply QueryEngine::routeRel(const Permutation &Rel) const {
  RouteReply Reply;
  if (Rel.isIdentity()) {
    TableFreeAnswers.fetch_add(1, std::memory_order_relaxed);
    Reply.Exact = true;
    return Reply;
  }
  if (!Cache.lookup(Rel, Reply.Hops)) {
    Reply.Hops = computeRouteRel(Rel);
    Cache.insert(Rel, Reply.Hops);
  }
  // Flags are recomputed (never cached): each is a pure function of the key
  // and the engine configuration, so hit and miss replies stay identical.
  Reply.FromTable =
      Table && Reply.Hops.size() ==
                   size_t(Table->distanceByRank(rankPermutation(Rel)));
  Reply.Exact = Reply.FromTable || Router == FreeRouter::StarGreedy ||
                Router == FreeRouter::BubbleSort;
  (Reply.FromTable ? TableAnswers : TableFreeAnswers)
      .fetch_add(1, std::memory_order_relaxed);
  return Reply;
}

std::vector<GenIndex>
QueryEngine::computeRouteRel(const Permutation &Rel) const {
  if (Table) {
    std::vector<GenIndex> Hops = tableRouteRel(Rel);
    if (!Hops.empty())
      return Hops;
    // Descent failed (a faulted-graph table can leave the target
    // unreachable or strand the greedy walk): serve a closed-form route
    // over the unfaulted network when the family has one.
  }
  return freeRouteRel(Rel);
}

/// Exact shortest route by greedy descent on the table: from remaining
/// relative R at distance D, the first generator g with
/// d(id, g^-1 o R) == D - 1 extends a shortest path (one exists by the BFS
/// property; "first" makes the choice deterministic).
std::vector<GenIndex>
QueryEngine::tableRouteRel(const Permutation &Rel) const {
  std::vector<GenIndex> Hops;
  uint8_t D = Table->distanceByRank(rankPermutation(Rel));
  if (D == TableUnreachable)
    return Hops;
  Hops.reserve(D);
  Permutation R = Rel, Next;
  while (!R.isIdentity()) {
    bool Stepped = false;
    for (GenIndex G = 0; G != InvGens.size(); ++G) {
      InvGens[G].composeInto(R, Next); // R after hopping along G.
      if (Table->distanceByRank(rankPermutation(Next)) == uint8_t(D - 1)) {
        Hops.push_back(G);
        R = Next;
        --D;
        Stepped = true;
        break;
      }
    }
    if (!Stepped) {
      // Inconsistent with Net (e.g. a faulted-graph row): report failure
      // and let the caller fall back.
      Hops.clear();
      return Hops;
    }
  }
  return Hops;
}

std::vector<GenIndex>
QueryEngine::freeRouteRel(const Permutation &Rel) const {
  std::vector<GenIndex> Hops;
  switch (Router) {
  case FreeRouter::StarGreedy: {
    // T_{j1} o ... o T_{jm} = Rel, m minimal (Akers-Krishnamurthy).
    for (unsigned J : starWordForPermutation(Rel))
      Hops.push_back(DimToGen[J]);
    return Hops;
  }
  case FreeRouter::BubbleSort: {
    // Bubble-sort the one-line word; each adjacent swap of an inversion is
    // a right-composition with A_i, so Rel o A_{i1} o ... o A_{im} = id and
    // Rel = A_{im} o ... o A_{i1}: emit the swaps in reverse. m is the
    // inversion count, the exact distance.
    std::vector<uint8_t> W = Rel.oneLineVector();
    std::vector<unsigned> Swaps;
    for (bool Swapped = true; Swapped;) {
      Swapped = false;
      for (unsigned I = 0; I + 1 < W.size(); ++I)
        if (W[I] > W[I + 1]) {
          std::swap(W[I], W[I + 1]);
          Swaps.push_back(I + 1);
          Swapped = true;
        }
    }
    for (auto It = Swaps.rbegin(); It != Swaps.rend(); ++It)
      Hops.push_back(DimToGen[*It]);
    return Hops;
  }
  case FreeRouter::Rotator: {
    // I_{i1} o I_{i2} o ... = Rel (insertion sort; valid, not optimal).
    for (unsigned J : rotatorWordForPermutation(Rel))
      Hops.push_back(DimToGen[J]);
    return Hops;
  }
  case FreeRouter::Lifted: {
    // Lift the shortest star route through the Theorems 1-3 templates.
    for (unsigned J : starWordForPermutation(Rel))
      Hops.insert(Hops.end(), DimTemplates[J].begin(), DimTemplates[J].end());
    return Hops;
  }
  case FreeRouter::None:
    break;
  }
  throw std::logic_error(Net.name() + " has no table-free router and no "
                         "table route; attachTable() a table that reaches "
                         "every label");
}

//===----------------------------------------------------------------------===//
// Batch serving.
//===----------------------------------------------------------------------===//

std::vector<DistanceReply>
QueryEngine::distanceBatch(std::span<const PairQuery> Queries) const {
  std::vector<DistanceReply> Replies(Queries.size());
  ThreadPool::global().parallelFor(0, Queries.size(), [&](uint64_t I) {
    Replies[I] = distance(Queries[I].Src, Queries[I].Dst);
  });
  return Replies;
}

std::vector<RouteReply>
QueryEngine::routeBatch(std::span<const PairQuery> Queries) const {
  std::vector<RouteReply> Replies(Queries.size());
  ThreadPool::global().parallelFor(0, Queries.size(), [&](uint64_t I) {
    Replies[I] = route(Queries[I].Src, Queries[I].Dst);
  });
  return Replies;
}

RouteArena
QueryEngine::routeBatchRelative(std::span<const Permutation> Rels) const {
  const uint64_t N = Rels.size();
  RouteQueries.fetch_add(N, std::memory_order_relaxed);
  RouteArena Out;
  Out.Offsets.push_back(0);
  if (N == 0)
    return Out;

  // Per-chunk arenas stitched in chunk-index order: chunk boundaries are a
  // function of N only (never the thread count), so the arena is
  // byte-identical at every SCG_THREADS setting, and the batch makes
  // O(chunks) transient allocations instead of O(N) route vectors.
  const uint64_t Chunk = ThreadPool::defaultChunkSize(N);
  const uint64_t NumChunks = (N + Chunk - 1) / Chunk;
  std::vector<RouteArena> Parts(NumChunks);
  ThreadPool::global().parallelForChunks(
      0, N, Chunk, [&](uint64_t B, uint64_t E) {
        RouteArena &P = Parts[B / Chunk];
        P.Offsets.reserve(E - B + 1);
        P.Offsets.push_back(0);
        for (uint64_t I = B; I != E; ++I) {
          assert(Rels[I].size() == Net.numSymbols() &&
                 "relative label must be on the engine's k symbols");
          RouteReply R = routeRel(Rels[I]);
          P.Hops.insert(P.Hops.end(), R.Hops.begin(), R.Hops.end());
          P.Offsets.push_back(uint32_t(P.Hops.size()));
        }
      });

  size_t TotalHops = 0;
  for (const RouteArena &P : Parts)
    TotalHops += P.Hops.size();
  Out.Hops.reserve(TotalHops);
  Out.Offsets.reserve(N + 1);
  for (const RouteArena &P : Parts) {
    uint32_t Base = uint32_t(Out.Hops.size());
    Out.Hops.insert(Out.Hops.end(), P.Hops.begin(), P.Hops.end());
    for (size_t I = 1; I < P.Offsets.size(); ++I)
      Out.Offsets.push_back(Base + P.Offsets[I]);
  }
  return Out;
}

void QueryEngine::publishMetrics(MetricsRegistry &M) const {
  M.counter("query.distance.count")
      .set(double(DistanceQueries.load(std::memory_order_relaxed)));
  M.counter("query.route.count")
      .set(double(RouteQueries.load(std::memory_order_relaxed)));
  M.counter("query.answers.table")
      .set(double(TableAnswers.load(std::memory_order_relaxed)));
  M.counter("query.answers.table_free")
      .set(double(TableFreeAnswers.load(std::memory_order_relaxed)));
  Cache.publish(M);
}
