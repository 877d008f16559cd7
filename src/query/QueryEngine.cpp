//===- query/QueryEngine.cpp - Table-free batched route serving ----------===//

#include "query/QueryEngine.h"

#include "emulation/SdcEmulation.h"
#include "perm/Lehmer.h"
#include "routing/RotatorRouter.h"
#include "routing/StarRouter.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

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

QueryEngine::QueryEngine(SuperCayleyGraph Network) : Net(std::move(Network)) {
  unsigned K = Net.numSymbols();
  if (K > Permutation::InlineCapacity)
    throw std::invalid_argument(
        "QueryEngine: " + Net.name() + " has " + std::to_string(K) +
        " symbols; the engine serves inline labels (k <= 16)");
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
  if (!NewTable || !NewTable->covers(Net))
    throw std::invalid_argument("attachTable: the table does not describe " +
                                Net.name());
  Table = std::move(NewTable);
}

//===----------------------------------------------------------------------===//
// Serving: everything funnels through the relative label Rel = Src^-1 o Dst.
//===----------------------------------------------------------------------===//

void QueryEngine::checkLabel(const Permutation &Label) const {
  if (Label.size() != Net.numSymbols()) [[unlikely]]
    throw std::invalid_argument(
        "query label has " + std::to_string(Label.size()) +
        " symbols; " + Net.name() + " has " +
        std::to_string(Net.numSymbols()));
}

Permutation QueryEngine::relativeLabel(const Permutation &Src,
                                       const Permutation &Dst) const {
  checkLabel(Src);
  checkLabel(Dst);
  return Src.inverse().compose(Dst);
}

void QueryEngine::addTally(const Tally &T) const {
  if (T.Table)
    TableAnswers.fetch_add(T.Table, std::memory_order_relaxed);
  if (T.TableFree)
    TableFreeAnswers.fetch_add(T.TableFree, std::memory_order_relaxed);
}

DistanceReply QueryEngine::distance(const Permutation &Src,
                                    const Permutation &Dst) const {
  Tally T;
  DistanceReply Reply = distanceRel(relativeLabel(Src, Dst), T);
  DistanceQueries.fetch_add(1, std::memory_order_relaxed);
  addTally(T);
  return Reply;
}

RouteReply QueryEngine::route(const Permutation &Src,
                              const Permutation &Dst) const {
  Tally T;
  RouteReply Reply = routeRel(relativeLabel(Src, Dst), T);
  RouteQueries.fetch_add(1, std::memory_order_relaxed);
  addTally(T);
  return Reply;
}

DistanceReply QueryEngine::distanceRel(const Permutation &Rel,
                                       Tally &T) const {
  if (Rel.isIdentity()) {
    ++T.TableFree;
    return {0, /*Exact=*/true, /*FromTable=*/false};
  }
  if (Table) {
    ++T.Table;
    uint8_t B = Table->distanceByRank(rankPermutation(Rel));
    uint32_t D = B == TableUnreachable ? UnreachableDistance : uint32_t(B);
    return {D, /*Exact=*/true, /*FromTable=*/true};
  }
  switch (Router) {
  case FreeRouter::StarGreedy:
    ++T.TableFree;
    return {starDistance(Rel), /*Exact=*/true, /*FromTable=*/false};
  case FreeRouter::BubbleSort:
    ++T.TableFree;
    return {inversionCount(Rel), /*Exact=*/true, /*FromTable=*/false};
  case FreeRouter::Rotator:
  case FreeRouter::Lifted:
  case FreeRouter::None: // freeRouteRel throws.
    break;
  }
  // No closed-form distance: the route length is a certified upper bound.
  return {routeRel(Rel, T).length(), /*Exact=*/false, /*FromTable=*/false};
}

RouteReply QueryEngine::routeRel(const Permutation &Rel, Tally &T) const {
  RouteReply Reply;
  RouteFlags Flags = computeRouteRel(Rel, Reply.Hops, T);
  Reply.Exact = Flags.Exact;
  Reply.FromTable = Flags.FromTable;
  return Reply;
}

QueryEngine::RouteFlags
QueryEngine::computeRouteRel(const Permutation &Rel,
                             std::vector<GenIndex> &Hops, Tally &T) const {
  if (Rel.isIdentity()) {
    ++T.TableFree;
    return {/*Exact=*/true, /*FromTable=*/false};
  }
  const size_t Begin = Hops.size();
  uint8_t D = TableUnreachable;
  if (Table) {
    D = Table->distanceByRank(rankPermutation(Rel));
    if (D != TableUnreachable && tableRouteRel(Rel, D, Hops)) {
      ++T.Table;
      return {/*Exact=*/true, /*FromTable=*/true};
    }
    // Descent failed (a faulted-graph table can leave the target
    // unreachable or strand the greedy walk): serve a closed-form route
    // over the unfaulted network when the family has one.
  }
  freeRouteRel(Rel, Hops);
  // A fallback route as long as the table distance is shortest too.
  if (D != TableUnreachable && Hops.size() - Begin == D) {
    ++T.Table;
    return {/*Exact=*/true, /*FromTable=*/true};
  }
  ++T.TableFree;
  return {routerIsExact(), /*FromTable=*/false};
}

/// Exact shortest route by greedy descent on the table: from remaining
/// relative R at distance D, the first generator g with
/// d(id, g^-1 o R) == D - 1 extends a shortest path (one exists by the BFS
/// property; "first" makes the choice deterministic).
bool QueryEngine::tableRouteRel(const Permutation &Rel, uint8_t D,
                                std::vector<GenIndex> &Hops) const {
  const size_t Begin = Hops.size();
  Hops.resize(Begin + D);
  Permutation R = Rel, Next;
  for (size_t H = Begin; H != Hops.size(); ++H) {
    bool Stepped = false;
    for (GenIndex G = 0; G != InvGens.size(); ++G) {
      InvGens[G].composeInto(R, Next); // R after hopping along G.
      if (Table->distanceByRank(rankPermutation(Next)) == uint8_t(D - 1)) {
        Hops[H] = G;
        R = Next;
        --D;
        Stepped = true;
        break;
      }
    }
    if (!Stepped) {
      // Inconsistent with Net (e.g. a faulted-graph row): report failure
      // and let the caller fall back.
      Hops.resize(Begin);
      return false;
    }
  }
  if (R.isIdentity())
    return true;
  Hops.resize(Begin); // a row that is not a distance row from the identity.
  return false;
}

void QueryEngine::freeRouteRel(const Permutation &Rel,
                               std::vector<GenIndex> &Hops) const {
  // Each router sizes the route first, so a reply's empty vector allocates
  // exactly once, and an arena grows geometrically.
  const size_t Begin = Hops.size();
  switch (Router) {
  case FreeRouter::StarGreedy: {
    // T_{j1} o ... o T_{jm} = Rel, m minimal (Akers-Krishnamurthy).
    std::array<uint8_t, starWordBound(Permutation::InlineCapacity)> Dims;
    unsigned M = starWordInto(Rel, Dims);
    Hops.resize(Begin + M);
    for (unsigned I = 0; I != M; ++I)
      Hops[Begin + I] = DimToGen[Dims[I]];
    return;
  }
  case FreeRouter::BubbleSort: {
    // Bubble-sort the one-line word; each adjacent swap of an inversion is
    // a right-composition with A_i, so Rel o A_{i1} o ... o A_{im} = id and
    // Rel = A_{im} o ... o A_{i1}: emit the swaps in reverse. m is the
    // inversion count, the exact distance.
    constexpr unsigned K16 = Permutation::InlineCapacity;
    std::array<uint8_t, K16> W;
    std::array<uint8_t, K16 * (K16 - 1) / 2> Swaps;
    std::span<const uint8_t> Word = Rel.oneLine();
    std::copy(Word.begin(), Word.end(), W.begin());
    unsigned M = 0;
    for (bool Swapped = true; Swapped;) {
      Swapped = false;
      for (unsigned I = 0; I + 1 < Word.size(); ++I)
        if (W[I] > W[I + 1]) {
          std::swap(W[I], W[I + 1]);
          Swaps[M++] = uint8_t(I + 1);
          Swapped = true;
        }
    }
    Hops.resize(Begin + M);
    for (unsigned I = 0; I != M; ++I)
      Hops[Begin + I] = DimToGen[Swaps[M - 1 - I]];
    return;
  }
  case FreeRouter::Rotator: {
    // I_{i1} o I_{i2} o ... = Rel (insertion sort; valid, not optimal).
    std::vector<unsigned> Dims = rotatorWordForPermutation(Rel);
    Hops.resize(Begin + Dims.size());
    for (size_t I = 0; I != Dims.size(); ++I)
      Hops[Begin + I] = DimToGen[Dims[I]];
    return;
  }
  case FreeRouter::Lifted: {
    // Lift the shortest star route through the Theorems 1-3 templates.
    std::array<uint8_t, starWordBound(Permutation::InlineCapacity)> Dims;
    unsigned M = starWordInto(Rel, Dims);
    size_t Length = 0;
    for (unsigned I = 0; I != M; ++I)
      Length += DimTemplates[Dims[I]].size();
    Hops.resize(Begin + Length);
    GenIndex *Out = Hops.data() + Begin;
    for (unsigned I = 0; I != M; ++I)
      Out = std::copy(DimTemplates[Dims[I]].begin(),
                      DimTemplates[Dims[I]].end(), Out);
    return;
  }
  case FreeRouter::None:
    break;
  }
  throw std::logic_error(Net.name() + " has no table-free router and no "
                         "table route; attachTable() a table that reaches "
                         "every label");
}

//===----------------------------------------------------------------------===//
// Batch serving: each chunk tallies its answers locally and adds them once.
//===----------------------------------------------------------------------===//

std::vector<DistanceReply>
QueryEngine::distanceBatch(std::span<const PairQuery> Queries) const {
  DistanceQueries.fetch_add(Queries.size(), std::memory_order_relaxed);
  std::vector<DistanceReply> Replies(Queries.size());
  ThreadPool::global().parallelForChunks(
      0, Queries.size(), BatchChunk, [&](uint64_t B, uint64_t E) {
        Tally T;
        for (uint64_t I = B; I != E; ++I)
          Replies[I] =
              distanceRel(relativeLabel(Queries[I].Src, Queries[I].Dst), T);
        addTally(T);
      });
  return Replies;
}

std::vector<RouteReply>
QueryEngine::routeBatch(std::span<const PairQuery> Queries) const {
  RouteQueries.fetch_add(Queries.size(), std::memory_order_relaxed);
  std::vector<RouteReply> Replies(Queries.size());
  ThreadPool::global().parallelForChunks(
      0, Queries.size(), BatchChunk, [&](uint64_t B, uint64_t E) {
        Tally T;
        for (uint64_t I = B; I != E; ++I)
          Replies[I] =
              routeRel(relativeLabel(Queries[I].Src, Queries[I].Dst), T);
        addTally(T);
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
        Tally T;
        for (uint64_t I = B; I != E; ++I) {
          checkLabel(Rels[I]);
          computeRouteRel(Rels[I], P.Hops, T);
          P.Offsets.push_back(uint32_t(P.Hops.size()));
        }
        addTally(T);
      });
  if (NumChunks == 1)
    return std::move(Parts.front());

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
}
