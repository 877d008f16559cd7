//===- tests/QueryEngineTest.cpp - Query subsystem differential tests ----===//
//
// Pins the query subsystem against the ground-truth engines: table-free
// rank-space serving must reproduce ExplicitScg BFS distances and
// StarRouter/lifted path lengths on every supported family, the
// TableStore must round-trip through its binary format (including a
// cross-process writer/reader split over mmap) and reject corrupt files,
// and batched parallel serving must be byte-identical to serial.
//
//===----------------------------------------------------------------------===//

#include "query/QueryEngine.h"

#include "emulation/SdcEmulation.h"
#include "graph/MsBfs.h"
#include "networks/Explicit.h"
#include "perm/Lehmer.h"
#include "routing/StarRouter.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"

#include "AllocCounter.h"
#include "Oracles.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include <sys/wait.h>
#include <unistd.h>

using namespace scg;

namespace {

struct QueryParams {
  NetworkKind Kind;
  unsigned L, N;
};

SuperCayleyGraph makeNetwork(const QueryParams &P) {
  switch (P.Kind) {
  case NetworkKind::Star:
    return SuperCayleyGraph::star(P.L * P.N + 1);
  case NetworkKind::BubbleSort:
    return SuperCayleyGraph::bubbleSort(P.L * P.N + 1);
  case NetworkKind::Transposition:
    return SuperCayleyGraph::transpositionNetwork(P.L * P.N + 1);
  case NetworkKind::Rotator:
    return SuperCayleyGraph::rotator(P.L * P.N + 1);
  case NetworkKind::InsertionSelection:
    return SuperCayleyGraph::insertionSelection(P.L * P.N + 1);
  default:
    return SuperCayleyGraph::create(P.Kind, P.L, P.N);
  }
}

std::string queryName(const testing::TestParamInfo<QueryParams> &Info) {
  std::string Name = networkKindName(Info.param.Kind) + "_" +
                     std::to_string(Info.param.L) + "_" +
                     std::to_string(Info.param.N);
  for (char &C : Name)
    if (C == '-')
      C = '_';
  return Name;
}

/// Walks \p Hops from \p Src and checks the endpoint is \p Dst: every reply
/// must be a real route regardless of which engine produced it.
void expectValidRoute(const SuperCayleyGraph &Net, const Permutation &Src,
                      const Permutation &Dst,
                      const std::vector<GenIndex> &Hops) {
  Permutation Cur = Src;
  for (GenIndex G : Hops) {
    ASSERT_LT(G, Net.generators().size());
    Net.neighborInto(Cur, G, Cur);
  }
  EXPECT_EQ(Cur, Dst);
}

/// Sampled destination ranks: identity, last, and a deterministic stride.
std::vector<uint64_t> sampleRanks(uint64_t Count, uint64_t Samples) {
  std::vector<uint64_t> Ranks = {0, Count - 1};
  uint64_t Stride = std::max<uint64_t>(1, Count / Samples);
  for (uint64_t R = 1; R + 1 < Count; R += Stride)
    Ranks.push_back(R);
  return Ranks;
}

std::string tempPath(const std::string &Leaf) {
  return testing::TempDir() + "/" + Leaf;
}

class QueryEngineFamilyTest : public testing::TestWithParam<QueryParams> {};

} // namespace

//===----------------------------------------------------------------------===//
// Differential: table-free serving vs BFS / StarRouter ground truth.
//===----------------------------------------------------------------------===//

TEST_P(QueryEngineFamilyTest, TableFreeMatchesBfs) {
  SuperCayleyGraph Net = makeNetwork(GetParam());
  if (!QueryEngine::supportsTableFree(Net))
    GTEST_SKIP() << Net.name() << " is table-only";
  QueryEngine Engine(Net);
  ExplicitScg Ex(Net);
  oracle::BfsResult FromId = oracle::bfs(Ex.toCsr(), 0);
  Permutation Id = Permutation::identity(Net.numSymbols());

  for (uint64_t R : sampleRanks(Ex.numNodes(), 120)) {
    Permutation Dst = unrankPermutation(R, Net.numSymbols());
    DistanceReply D = Engine.distance(Id, Dst);
    RouteReply Route = Engine.route(Id, Dst);
    EXPECT_FALSE(D.FromTable);
    // Every reply is a valid route whose length matches the distance
    // answer; Exact replies must equal the BFS distance, inexact ones
    // bound it from above.
    expectValidRoute(Net, Id, Dst, Route.Hops);
    EXPECT_EQ(D.Distance, Route.length());
    EXPECT_GE(D.Distance, FromId.Distance[R]);
    if (D.Exact) {
      EXPECT_EQ(D.Distance, FromId.Distance[R]);
    }
    EXPECT_EQ(D.Exact, Route.Exact);
  }
}

TEST_P(QueryEngineFamilyTest, TableFreeArbitrarySources) {
  SuperCayleyGraph Net = makeNetwork(GetParam());
  if (!QueryEngine::supportsTableFree(Net))
    GTEST_SKIP() << Net.name() << " is table-only";
  QueryEngine Engine(Net);
  ExplicitScg Ex(Net);
  // Cayley normalization: d(Src, Dst) must match a BFS rooted at Src, not
  // just at the identity.
  NodeId SrcRank = NodeId(Ex.numNodes() / 3);
  oracle::BfsResult FromSrc = oracle::bfs(Ex.toCsr(), SrcRank);
  Permutation Src = Ex.label(SrcRank);

  for (uint64_t R : sampleRanks(Ex.numNodes(), 60)) {
    Permutation Dst = unrankPermutation(R, Net.numSymbols());
    DistanceReply D = Engine.distance(Src, Dst);
    RouteReply Route = Engine.route(Src, Dst);
    expectValidRoute(Net, Src, Dst, Route.Hops);
    EXPECT_GE(D.Distance, FromSrc.Distance[R]);
    if (D.Exact) {
      EXPECT_EQ(D.Distance, FromSrc.Distance[R]);
    }
  }
}

//===----------------------------------------------------------------------===//
// Differential: table-backed serving is exact on EVERY family.
//===----------------------------------------------------------------------===//

TEST_P(QueryEngineFamilyTest, TableBackedIsExact) {
  SuperCayleyGraph Net = makeNetwork(GetParam());
  QueryEngine Engine(Net);
  Engine.attachTable(std::make_shared<TableStore>(TableStore::build(Net)));
  ASSERT_TRUE(Engine.tableBacked());
  ExplicitScg Ex(Net);
  NodeId SrcRank = NodeId(Ex.numNodes() / 5);
  oracle::BfsResult FromSrc = oracle::bfs(Ex.toCsr(), SrcRank);
  Permutation Src = Ex.label(SrcRank);

  for (uint64_t R : sampleRanks(Ex.numNodes(), 120)) {
    if (R == SrcRank)
      continue; // the identity reply is trivially exact, not table-sourced.
    Permutation Dst = unrankPermutation(R, Net.numSymbols());
    DistanceReply D = Engine.distance(Src, Dst);
    RouteReply Route = Engine.route(Src, Dst);
    EXPECT_TRUE(D.Exact);
    EXPECT_TRUE(D.FromTable);
    EXPECT_EQ(D.Distance, FromSrc.Distance[R]);
    EXPECT_TRUE(Route.Exact);
    EXPECT_TRUE(Route.FromTable);
    EXPECT_EQ(Route.length(), FromSrc.Distance[R]);
    expectValidRoute(Net, Src, Dst, Route.Hops);
  }
}

TEST(QueryEngineTest, StarSevenMatchesStarRouter) {
  // The acceptance pin: star(7) distances byte-identical to the closed form
  // and to the table, routes matching StarRouter hop counts.
  SuperCayleyGraph Net = SuperCayleyGraph::star(7);
  QueryEngine Free(Net);
  QueryEngine Tabled(Net);
  Tabled.attachTable(std::make_shared<TableStore>(TableStore::build(Net)));
  Permutation Id = Permutation::identity(7);
  for (uint64_t R : sampleRanks(factorial(7), 400)) {
    Permutation Dst = unrankPermutation(R, 7);
    unsigned Want = starDistance(Id, Dst);
    EXPECT_EQ(Free.distance(Id, Dst).Distance, Want);
    EXPECT_EQ(Tabled.distance(Id, Dst).Distance, Want);
    EXPECT_EQ(Free.route(Id, Dst).length(),
              starRouteDimensions(Id, Dst).size());
    EXPECT_EQ(Tabled.route(Id, Dst).length(), Want);
  }
}

TEST(QueryEngineTest, LiftedRouteWithinSlowdownBound) {
  // Theorems 1-3: lifted routes are at most slowdown * starDistance.
  for (QueryParams P : {QueryParams{NetworkKind::MacroStar, 2, 2},
                        QueryParams{NetworkKind::MacroIS, 2, 2},
                        QueryParams{NetworkKind::CompleteRotationStar, 2, 2}}) {
    SuperCayleyGraph Net = makeNetwork(P);
    QueryEngine Engine(Net);
    unsigned Bound = paperSdcSlowdownBound(Net);
    Permutation Id = Permutation::identity(Net.numSymbols());
    for (uint64_t R : sampleRanks(Net.numNodes(), 60)) {
      Permutation Dst = unrankPermutation(R, Net.numSymbols());
      EXPECT_LE(Engine.route(Id, Dst).length(),
                Bound * starDistance(Id, Dst));
    }
  }
}

//===----------------------------------------------------------------------===//
// Batched serving: parallel == serial.
//===----------------------------------------------------------------------===//

namespace {

std::vector<PairQuery> makeWorkload(const SuperCayleyGraph &Net,
                                    size_t Count) {
  std::vector<PairQuery> Queries;
  uint64_t Nodes = Net.numNodes();
  for (size_t I = 0; I != Count; ++I) {
    // Deterministic spread with repeated relative labels.
    uint64_t S = (I * 2654435761u) % Nodes;
    uint64_t D = (I * 40503u + 17) % Nodes;
    Queries.push_back({unrankPermutation(S, Net.numSymbols()),
                       unrankPermutation(D, Net.numSymbols())});
  }
  return Queries;
}

} // namespace

TEST(QueryEngineParallelTest, BatchedAnswersAreThreadCountInvariant) {
  for (QueryParams P : {QueryParams{NetworkKind::Star, 6, 1},
                        QueryParams{NetworkKind::MacroStar, 2, 2},
                        QueryParams{NetworkKind::Rotator, 5, 1}}) {
    SuperCayleyGraph Net = makeNetwork(P);
    std::vector<PairQuery> Queries = makeWorkload(Net, 600);

    setGlobalThreadCount(1);
    QueryEngine Serial(Net);
    std::vector<DistanceReply> SerialDist = Serial.distanceBatch(Queries);
    std::vector<RouteReply> SerialRoutes = Serial.routeBatch(Queries);

    for (unsigned Threads : {2u, 4u, 8u}) {
      setGlobalThreadCount(Threads);
      QueryEngine Par(Net);
      EXPECT_EQ(Par.distanceBatch(Queries), SerialDist) << Net.name();
      EXPECT_EQ(Par.routeBatch(Queries), SerialRoutes) << Net.name();
    }
    setGlobalThreadCount(0);
  }
}

TEST(QueryEngineParallelTest, TableBackedBatchThreadCountInvariant) {
  SuperCayleyGraph Net = SuperCayleyGraph::create(NetworkKind::MacroRotator,
                                                  2, 2);
  auto Table = std::make_shared<TableStore>(TableStore::build(Net));
  std::vector<PairQuery> Queries = makeWorkload(Net, 400);

  setGlobalThreadCount(1);
  QueryEngine Serial(Net);
  Serial.attachTable(Table);
  std::vector<RouteReply> Want = Serial.routeBatch(Queries);

  setGlobalThreadCount(4);
  QueryEngine Par(Net);
  Par.attachTable(Table);
  EXPECT_EQ(Par.routeBatch(Queries), Want);
  setGlobalThreadCount(0);
}

//===----------------------------------------------------------------------===//
// Counters, allocations and caller-input errors.
//===----------------------------------------------------------------------===//

TEST(QueryEngineTest, PublishesQueryMetrics) {
  SuperCayleyGraph Net = SuperCayleyGraph::star(5);
  QueryEngine Engine(Net);
  Permutation Id = Permutation::identity(5);
  Permutation Dst = unrankPermutation(42, 5);
  Engine.distance(Id, Dst);
  Engine.route(Id, Dst);
  Engine.route(Id, Dst);

  MetricsRegistry M;
  Engine.publishMetrics(M);
  EXPECT_EQ(M.find("query.distance.count")->value(), 1.0);
  EXPECT_EQ(M.find("query.route.count")->value(), 2.0);
  EXPECT_EQ(M.find("query.answers.table")->value(), 0.0);
  EXPECT_EQ(M.find("query.answers.table_free")->value(), 3.0);
}

TEST(QueryEngineTest, BatchCountersAddUpAtEveryThreadCount) {
  // Chunks add their tallies once each; the totals must still count every
  // query exactly once, whatever the chunking and the thread count.
  const size_t N = 600;
  SuperCayleyGraph Lifted =
      SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2);
  SuperCayleyGraph Star = SuperCayleyGraph::star(6);
  auto StarTable = std::make_shared<TableStore>(TableStore::build(Star));
  for (unsigned Threads : {1u, 4u}) {
    setGlobalThreadCount(Threads);
    for (bool UseTable : {false, true}) {
      const SuperCayleyGraph &Net = UseTable ? Star : Lifted;
      QueryEngine Engine(Net);
      if (UseTable)
        Engine.attachTable(StarTable);
      std::vector<PairQuery> Queries = makeWorkload(Net, N);
      Engine.routeBatch(Queries);
      Engine.distanceBatch(Queries);

      MetricsRegistry M;
      Engine.publishMetrics(M);
      EXPECT_EQ(M.find("query.route.count")->value(), double(N));
      EXPECT_EQ(M.find("query.distance.count")->value(), double(N));
      EXPECT_EQ(M.find("query.answers.table")->value() +
                    M.find("query.answers.table_free")->value(),
                double(2 * N))
          << Net.name() << " at " << Threads << " threads";
      if (!UseTable) {
        EXPECT_EQ(M.find("query.answers.table")->value(), 0.0);
      }
    }
  }
  setGlobalThreadCount(0);
}

TEST(QueryEngineTest, TableFreeRouteAllocatesOnce) {
  // The star word goes through a stack buffer and a lifted route is sized
  // before its templates are copied: the reply's vector is the only
  // allocation.
  for (SuperCayleyGraph Net :
       {SuperCayleyGraph::star(8),
        SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 4)}) {
    QueryEngine Engine(Net);
    const unsigned K = Net.numSymbols();
    Permutation Src = unrankPermutation(factorial(K) / 3, K);
    Permutation Dst = unrankPermutation(factorial(K) - 1, K);
    uint64_t Before = test::heapAllocations();
    RouteReply Reply = Engine.route(Src, Dst);
    EXPECT_EQ(test::heapAllocations() - Before, 1u) << Net.name();
    EXPECT_EQ(Reply.Hops.capacity(), Reply.Hops.size()) << Net.name();
    expectValidRoute(Net, Src, Dst, Reply.Hops);
  }
}

TEST(QueryEngineTest, RejectsBadCallerInputInEveryBuild) {
  SuperCayleyGraph Net = SuperCayleyGraph::star(6);
  EXPECT_THROW(QueryEngine(SuperCayleyGraph::star(17)),
               std::invalid_argument);

  QueryEngine Engine(Net);
  EXPECT_THROW(Engine.attachTable(nullptr), std::invalid_argument);
  // A smaller table would be read past its end at the larger ranks.
  EXPECT_THROW(Engine.attachTable(std::make_shared<TableStore>(
                   TableStore::build(SuperCayleyGraph::star(5)))),
               std::invalid_argument);
  EXPECT_FALSE(Engine.tableBacked());

  Permutation Id = Permutation::identity(6);
  Permutation Short = Permutation::identity(5);
  Permutation Long = Permutation::identity(7);
  EXPECT_THROW(Engine.route(Id, Short), std::invalid_argument);
  EXPECT_THROW(Engine.route(Long, Id), std::invalid_argument);
  EXPECT_THROW(Engine.distance(Short, Id), std::invalid_argument);
  EXPECT_THROW(Engine.distance(Id, Long), std::invalid_argument);
  std::vector<Permutation> Rels = {Id, unrankPermutation(9, 6), Short};
  EXPECT_THROW(Engine.routeBatchRelative(Rels), std::invalid_argument);
  std::vector<PairQuery> Queries = {{Id, Id}, {Id, Long}};
  EXPECT_THROW(Engine.routeBatch(Queries), std::invalid_argument);
  EXPECT_THROW(Engine.distanceBatch(Queries), std::invalid_argument);

  // Well-formed queries still answer after the rejected ones.
  EXPECT_EQ(Engine.distance(Id, unrankPermutation(9, 6)).Distance,
            starDistance(unrankPermutation(9, 6)));
}

//===----------------------------------------------------------------------===//
// TableStore: format round trip, mmap sharing, corruption rejection.
//===----------------------------------------------------------------------===//

TEST(TableStoreTest, SaveLoadRoundTrip) {
  SuperCayleyGraph Net = SuperCayleyGraph::star(6);
  TableStore Built = TableStore::build(Net);
  std::string Path = tempPath("star6.scgtbl");
  Built.save(Path);

  TableStore Loaded = TableStore::load(Path);
  EXPECT_TRUE(Loaded.isMapped());
  EXPECT_FALSE(Built.isMapped());
  EXPECT_TRUE(Loaded.covers(Net));
  EXPECT_EQ(Loaded.numNodes(), factorial(6));
  for (uint64_t R = 0; R != Loaded.numNodes(); ++R)
    EXPECT_EQ(Loaded.distanceByRank(R), Built.distanceByRank(R));
  std::remove(Path.c_str());
}

TEST(TableStoreTest, CrossProcessWriterReaderSplit) {
  // The multi-process contract: one process serializes, another mmaps the
  // file read-only and serves exact answers from it.
  SuperCayleyGraph Net = SuperCayleyGraph::bubbleSort(5);
  TableStore Built = TableStore::build(Net);
  std::string Path = tempPath("bubble5.scgtbl");
  Built.save(Path);

  pid_t Child = fork();
  ASSERT_GE(Child, 0);
  if (Child == 0) {
    // Reader process: load, spot-check against nothing but the format.
    try {
      TableStore Loaded = TableStore::load(Path);
      bool Ok = Loaded.isMapped() && Loaded.covers(Net) &&
                Loaded.numNodes() == factorial(5) &&
                Loaded.distanceByRank(0) == 0;
      for (uint64_t R = 0; Ok && R != Loaded.numNodes(); ++R)
        Ok = Loaded.distanceByRank(R) == Built.distanceByRank(R);
      _exit(Ok ? 0 : 1);
    } catch (const TableStoreError &) {
      _exit(2);
    }
  }
  int Status = 0;
  ASSERT_EQ(waitpid(Child, &Status, 0), Child);
  EXPECT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 0);
  std::remove(Path.c_str());
}

namespace {

std::vector<char> readAll(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return {std::istreambuf_iterator<char>(In), {}};
}

void writeAll(const std::string &Path, const std::vector<char> &Bytes,
              size_t Count) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), std::streamsize(Count));
}

void expectLoadFails(const std::string &Path, const std::string &Needle) {
  try {
    TableStore T = TableStore::load(Path);
    FAIL() << "load of " << Path << " should have thrown";
  } catch (const TableStoreError &E) {
    EXPECT_NE(std::string(E.what()).find(Needle), std::string::npos)
        << "message was: " << E.what();
  }
}

} // namespace

TEST(TableStoreTest, RejectsCorruptFiles) {
  SuperCayleyGraph Net = SuperCayleyGraph::star(5);
  std::string Good = tempPath("good.scgtbl");
  TableStore::build(Net).save(Good);
  std::vector<char> Bytes = readAll(Good);
  ASSERT_EQ(Bytes.size(), 56u + factorial(5));
  std::string Bad = tempPath("bad.scgtbl");

  // Shorter than the header.
  writeAll(Bad, Bytes, 20);
  expectLoadFails(Bad, "smaller than the header");

  // Payload cut off mid-row.
  writeAll(Bad, Bytes, Bytes.size() - 10);
  expectLoadFails(Bad, "truncated payload");

  // Junk appended after the payload.
  {
    std::vector<char> Long = Bytes;
    Long.push_back('x');
    writeAll(Bad, Long, Long.size());
    expectLoadFails(Bad, "trailing garbage");
  }

  // A single flipped payload bit must fail the checksum.
  {
    std::vector<char> Flipped = Bytes;
    Flipped[56 + 40] ^= 0x10;
    writeAll(Bad, Flipped, Flipped.size());
    expectLoadFails(Bad, "checksum mismatch");
  }

  // Wrong magic: not one of our files at all.
  {
    std::vector<char> Foreign = Bytes;
    Foreign[0] = 'X';
    writeAll(Bad, Foreign, Foreign.size());
    expectLoadFails(Bad, "bad magic");
  }

  // Byte-swapped endianness probe, as a big-endian writer would produce.
  {
    std::vector<char> Swapped = Bytes;
    std::swap(Swapped[8], Swapped[11]);
    std::swap(Swapped[9], Swapped[10]);
    writeAll(Bad, Swapped, Swapped.size());
    expectLoadFails(Bad, "foreign-endian");
  }

  // Future format version.
  {
    std::vector<char> Versioned = Bytes;
    Versioned[12] = 9;
    writeAll(Bad, Versioned, Versioned.size());
    expectLoadFails(Bad, "version");
  }

  // Header k / node-count disagreement.
  {
    std::vector<char> Mismatched = Bytes;
    Mismatched[28] = 7; // claims k = 7 but count stays 5!.
    writeAll(Bad, Mismatched, Mismatched.size());
    expectLoadFails(Bad, "does not match k!");
  }

  // The untouched original still loads after all that.
  EXPECT_NO_THROW(TableStore::load(Good));
  std::remove(Good.c_str());
  std::remove(Bad.c_str());

  // A missing file is an error, not UB.
  expectLoadFails(Good, "cannot open");
}

TEST(TableStoreTest, CoversChecksKindAndParameters) {
  TableStore T = TableStore::build(SuperCayleyGraph::star(5));
  EXPECT_TRUE(T.covers(SuperCayleyGraph::star(5)));
  EXPECT_FALSE(T.covers(SuperCayleyGraph::star(6)));
  EXPECT_FALSE(T.covers(SuperCayleyGraph::bubbleSort(5)));
  EXPECT_FALSE(
      T.covers(SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2)));
}

//===----------------------------------------------------------------------===//
// Faulted tables: unreachable lanes serve UnreachableDistance, routes fall
// back to the closed-form router.
//===----------------------------------------------------------------------===//

TEST(QueryEngineTest, FaultedTableFallsBackToTableFreeRoutes) {
  SuperCayleyGraph Net = SuperCayleyGraph::star(5);
  TableStore Clean = TableStore::build(Net);
  std::vector<uint8_t> Row(Clean.numNodes());
  for (uint64_t R = 0; R != Clean.numNodes(); ++R)
    Row[R] = Clean.distanceByRank(R);
  // Knock out a band of nodes, as a fault sweep's distance row would.
  for (uint64_t R = 40; R != 60; ++R)
    Row[R] = TableUnreachable;

  QueryEngine Engine(Net);
  Engine.attachTable(
      std::make_shared<TableStore>(TableStore::fromRow(Net, std::move(Row))));
  Permutation Id = Permutation::identity(5);

  Permutation Dead = unrankPermutation(45, 5);
  DistanceReply D = Engine.distance(Id, Dead);
  EXPECT_EQ(D.Distance, UnreachableDistance);
  EXPECT_TRUE(D.FromTable);
  // The route cannot descend through the hole, but the star closed form
  // still produces a valid (unfaulted-network) route.
  RouteReply Route = Engine.route(Id, Dead);
  expectValidRoute(Net, Id, Dead, Route.Hops);
  EXPECT_FALSE(Route.FromTable);

  // Lanes outside the hole still serve exact distances from the table, and
  // routes stay valid whichever engine ends up producing them.
  Permutation Alive = unrankPermutation(100, 5);
  DistanceReply DA = Engine.distance(Id, Alive);
  EXPECT_TRUE(DA.FromTable);
  EXPECT_NE(DA.Distance, UnreachableDistance);
  expectValidRoute(Net, Id, Alive, Engine.route(Id, Alive).Hops);
}

TEST(QueryEngineTest, TableOnlyFamilyWithoutTableThrows) {
  // MR has no table-free router: without a table every non-identity query
  // must fail loudly (never an empty route or an "unreachable" distance),
  // in every build, and the identity label still answers 0.
  SuperCayleyGraph Net =
      SuperCayleyGraph::create(NetworkKind::MacroRotator, 2, 2);
  ASSERT_FALSE(QueryEngine::supportsTableFree(Net));
  QueryEngine Engine(Net);
  Permutation Id = Permutation::identity(5);
  Permutation Dst = unrankPermutation(77, 5);

  EXPECT_THROW(Engine.route(Id, Dst), std::logic_error);
  EXPECT_THROW(Engine.distance(Id, Dst), std::logic_error);
  std::vector<Permutation> Rels = {Id, Dst};
  EXPECT_THROW(Engine.routeBatchRelative(Rels), std::logic_error);
  std::vector<PairQuery> Queries = {{Id, Id}, {Id, Dst}};
  EXPECT_THROW(Engine.distanceBatch(Queries), std::logic_error);

  EXPECT_EQ(Engine.distance(Dst, Dst).Distance, 0u);
  EXPECT_TRUE(Engine.route(Dst, Dst).Hops.empty());
  RouteArena Identity = Engine.routeBatchRelative(std::span(Rels).first(1));
  ASSERT_EQ(Identity.size(), 1u);
  EXPECT_EQ(Identity.length(0), 0u);
}

//===----------------------------------------------------------------------===//
// Family sweep instantiation.
//===----------------------------------------------------------------------===//

INSTANTIATE_TEST_SUITE_P(
    Families, QueryEngineFamilyTest,
    testing::Values(QueryParams{NetworkKind::Star, 5, 1},
                    QueryParams{NetworkKind::Star, 6, 1},
                    QueryParams{NetworkKind::BubbleSort, 5, 1},
                    QueryParams{NetworkKind::BubbleSort, 6, 1},
                    QueryParams{NetworkKind::Transposition, 5, 1},
                    QueryParams{NetworkKind::Rotator, 5, 1},
                    QueryParams{NetworkKind::Rotator, 6, 1},
                    QueryParams{NetworkKind::InsertionSelection, 5, 1},
                    QueryParams{NetworkKind::MacroStar, 2, 2},
                    QueryParams{NetworkKind::RotationStar, 2, 2},
                    QueryParams{NetworkKind::CompleteRotationStar, 2, 2},
                    QueryParams{NetworkKind::MacroIS, 2, 2},
                    QueryParams{NetworkKind::RotationIS, 2, 2},
                    QueryParams{NetworkKind::CompleteRotationIS, 2, 2},
                    QueryParams{NetworkKind::MacroRotator, 2, 2},
                    QueryParams{NetworkKind::RotationRotator, 2, 2},
                    QueryParams{NetworkKind::CompleteRotationRotator, 2, 2}),
    queryName);
