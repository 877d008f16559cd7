//===- graph/MsBfs.h - Bit-parallel multi-source BFS -----------*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bit-parallel multi-source BFS over CSR adjacency: up to 64 sources
/// advance together, one bit lane per source. Each node carries 64-bit
/// seen / frontier words; a word update does the work of up to 64 scalar
/// BFS visits, which is what pushes exact all-pairs and fault sweeps from
/// k = 7 into k = 9/10 territory.
///
/// msBfsCore is the one engine: every level scans all N frontier words,
/// ORs each live word into its out-neighbors' next words, then commits
/// the lanes not yet seen. Its sink fires once per (node, level) with the
/// exact lane mask first reaching the node then; msBfsDistances,
/// msBfsDistanceRow and msAllPairsStats are small sinks over it, and the
/// fault analyses (graph/Faults.cpp) call it directly with a counting sink.
/// Sinks that only need totals fold each call with one popcount rather than
/// peeling the mask lane by lane.
///
/// The engine draws its bitmap arrays from per-thread reusable scratch
/// (support/Scratch.h) -- a 56k-batch sweep at k = 10 would otherwise
/// malloc three multi-megabyte arrays per batch.
///
/// Determinism: traversal is bit algebra over a fixed node order, so a
/// batch's visit sequence is a pure function of (graph, source list),
/// emitted in ascending (level, node) order. Every in-tree sink folds
/// with order-independent operations (integer sums / max / AND), and
/// msAllPairsStats reduces batches through the ThreadPool's
/// order-independent fold, so parallel runs are byte-identical to serial
/// (pinned against scalar bfs() by tests/MsBfsTest.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef SCG_GRAPH_MSBFS_H
#define SCG_GRAPH_MSBFS_H

#include "graph/Bfs.h"
#include "graph/Csr.h"
#include "graph/Metrics.h"
#include "support/Scratch.h"

#include <cassert>
#include <span>
#include <vector>

namespace scg {

/// Number of BFS sources a single batch advances in bit-parallel: one per
/// bit of the per-node frontier word.
constexpr unsigned MsBfsLanes = 64;

/// Reusable per-batch state: three N-word bitmap arrays. The engine
/// assign()s every bitmap it reads (or proves it clean), so a warm
/// scratch object is observationally identical to a fresh one
/// (support/Scratch.h contract). msAllPairsStats keeps one per worker
/// thread; callers invoking the engine directly may pass their own or
/// let it use the calling thread's.
struct MsBfsScratch {
  std::vector<uint64_t> Seen, Frontier, Next;
  std::vector<NodeId> Sources; ///< msAllPairsStats' batch source staging.
  /// True when the last engine run completed, which leaves Frontier and
  /// Next all-zero (every dead word is zeroed on commit and the final
  /// level has no live ones) -- the next same-size run then skips two
  /// large memsets. The engine clears the flag on entry and sets it on
  /// exit.
  bool LaneWordsClean = false;
};

namespace detail {

/// Resets a lane-word array for a new run. Seen must be wiped, but
/// Frontier / Next are all-zero whenever the engine ran to completion on
/// them (the commit loop zeroes every dead word and the final level leaves
/// no live ones), so a correctly-sized warm buffer skips the memset --
/// worth ~20% of a small-k group. A resize from another graph size can
/// expose stale words, so only the size-match fast path may skip. First
/// growth of a buffer advises huge pages before the touching assign: the
/// big-k bitmaps are exactly the randomly-accessed multi-megabyte arrays
/// reserveHugePages is for.
inline void resetLaneWords(std::vector<uint64_t> &Buf, size_t Size,
                           bool KnownZero) {
  if (KnownZero && Buf.size() == Size) {
    // Asserts stay live in this project; a full verify loop would cost
    // what the fast path saves, so spot-check the invariant instead (the
    // differential tests exercise warm reuse exhaustively).
    assert((Buf.empty() ||
            (Buf.front() == 0 && Buf[Size / 2] == 0 && Buf.back() == 0)) &&
           "warm lane buffer must be all-zero");
    return;
  }
  reserveHugePages(Buf, Size);
  Buf.assign(Size, 0);
}

} // namespace detail

/// Level-synchronous bit-parallel BFS from \p Sources (at most MsBfsLanes)
/// over \p G. Lane i is the BFS from Sources[i]. \p Visit is invoked as
/// Visit(Node, LaneMask, Level) exactly once for every node some lane
/// reaches, per level at which new lanes reach it: LaneMask holds exactly
/// the lanes whose BFS first reaches Node at distance Level. Level 0 calls
/// cover the sources themselves (duplicated sources share one call with
/// both lanes set). Calls are emitted in ascending (Level, Node) order.
/// Bitmaps come from \p Scratch (the calling thread's shared scratch when
/// null).
template <typename OnVisit>
void msBfsCore(const Csr &G, std::span<const NodeId> Sources, OnVisit &&Visit,
               MsBfsScratch *Scratch = nullptr) {
  assert(Sources.size() <= MsBfsLanes && "at most 64 lanes per batch");
  const NodeId N = G.numNodes();
  if (Sources.empty() || N == 0)
    return;
  MsBfsScratch &S = Scratch ? *Scratch : threadScratch<MsBfsScratch>();
  detail::resetLaneWords(S.Seen, N, /*KnownZero=*/false);
  detail::resetLaneWords(S.Frontier, N, S.LaneWordsClean);
  detail::resetLaneWords(S.Next, N, S.LaneWordsClean);
  S.LaneWordsClean = false;
  uint64_t *Seen = S.Seen.data(), *Frontier = S.Frontier.data(),
           *Next = S.Next.data();
  for (size_t Lane = 0; Lane != Sources.size(); ++Lane) {
    assert(Sources[Lane] < N && "source out of range");
    Frontier[Sources[Lane]] |= uint64_t(1) << Lane;
  }
  // Level-0 visits: one call per distinct source node, in node order.
  // Seen doubles as the "already emitted" marker here.
  for (NodeId Src : Sources) {
    if (Seen[Src])
      continue;
    Seen[Src] = Frontier[Src];
    Visit(Src, Frontier[Src], uint32_t(0));
  }

  const NodeId *Adj = G.adjacencyData();
  const uint64_t *Off = G.offsetsData();
  for (uint32_t Level = 1;; ++Level) {
    // Push: every frontier word flows into the out-neighbors' next words.
    for (NodeId Node = 0; Node != N; ++Node) {
      uint64_t F = Frontier[Node];
      if (!F)
        continue;
      for (uint64_t E = Off[Node], End = Off[Node + 1]; E != End; ++E)
        Next[Adj[E]] |= F;
    }
    // Commit: lanes not yet seen become the new frontier; visit them.
    uint64_t AnyNew = 0;
    for (NodeId Node = 0; Node != N; ++Node) {
      uint64_t New = Next[Node] & ~Seen[Node];
      Next[Node] = 0;
      Frontier[Node] = New;
      if (New) {
        Seen[Node] |= New;
        AnyNew |= New;
        Visit(Node, New, Level);
      }
    }
    if (!AnyNew) {
      // Next is fully re-zeroed and the dead frontier words above are all
      // zero too: record the clean-buffer invariant for the next run.
      S.LaneWordsClean = true;
      return;
    }
  }
}

/// Sentinel byte for "no path" in compact one-byte distance rows.
constexpr uint8_t MsBfsUnreachableByte = 0xFF;

/// Compact single-source distance row: entry v is d(\p Source, v) as one
/// byte, MsBfsUnreachableByte where no path exists. Asserts every finite
/// distance stays below the sentinel (SCG diameters at enumerable k are
/// two digits). This is the export the query layer's TableStore
/// serializes -- one byte per node keeps a k = 10 table at 3.6 MB, and
/// a row is all a vertex-transitive network needs for exact all-pairs
/// service (d(U, V) = d(id, U^-1 o V)).
std::vector<uint8_t> msBfsDistanceRow(const Csr &G, NodeId Source);

/// All-pairs distance statistics over \p G: sources batched 64 per word,
/// batches spread over the global ThreadPool (SCG_THREADS=1 forces
/// serial), results byte-identical at every thread count and to
/// scalarAllPairsStats. For a disconnected graph, returns Connected=false
/// with zeroed Diameter/AverageDistance.
DistanceStats msAllPairsStats(const Csr &G);

} // namespace scg

#endif // SCG_GRAPH_MSBFS_H
