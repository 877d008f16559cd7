//===- tests/ThreadPoolTest.cpp - Thread-pool property tests -------------===//
//
// Property-based coverage of the deterministic chunked parallel engine:
// randomized task counts and chunk sizes (deterministic SplitMix64),
// exactly-once execution, exception propagation, nested and empty
// submissions without deadlock, and parallelMapReduce == serial fold --
// byte-identical, including for floating-point reductions.
//
// The dispatch itself (one reused job slot, an epoch, spinning and parked
// workers) is held at pool sizes 2, 4 and 8; 8 oversubscribes a 4-core
// host, which is where a lost wake-up or a stale job shows:
//
//   back to back     10,000 dispatches of 2..64 chunks run every index
//                    once, and no chunk runs after its dispatch returned
//   error reset      a clean dispatch right after a throwing one does not
//                    rethrow
//   parked submitter the last chunk wakes a submitter that parked
//   two submitters   two non-pool threads share one pool
//   pool lifetime    pools destroyed while workers spin and while parked
//   no allocation    a warm dispatch allocates nothing on the heap
//
// The allocation count comes from tests/AllocCounter.cpp, which replaces
// the global operator new in this test binary.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "support/BatchRunner.h"
#include "support/Format.h"

#include "AllocCounter.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <thread>

using namespace scg;

namespace {

/// Temporarily forces a SCG_THREADS value; restores the old state on exit.
class ScopedEnvThreads {
public:
  explicit ScopedEnvThreads(const char *Value) {
    const char *Old = std::getenv("SCG_THREADS");
    HadOld = Old != nullptr;
    if (HadOld)
      OldValue = Old;
    if (Value)
      setenv("SCG_THREADS", Value, /*overwrite=*/1);
    else
      unsetenv("SCG_THREADS");
  }
  ~ScopedEnvThreads() {
    if (HadOld)
      setenv("SCG_THREADS", OldValue.c_str(), 1);
    else
      unsetenv("SCG_THREADS");
  }

private:
  bool HadOld = false;
  std::string OldValue;
};

} // namespace

TEST(ThreadPool, RandomizedForExecutesEveryIndexExactlyOnce) {
  SplitMix64 Rng(0xC0FFEE);
  for (unsigned Trial = 0; Trial != 24; ++Trial) {
    uint64_t N = Rng.nextBelow(400);
    uint64_t Chunk = Rng.nextBelow(17); // 0 = default chunking.
    unsigned Threads = 1 + unsigned(Rng.nextBelow(8));
    ThreadPool Pool(Threads);
    ASSERT_EQ(Pool.numThreads(), Threads);

    std::vector<uint32_t> Hits(N, 0); // one writer per index.
    std::atomic<uint64_t> Total{0};
    Pool.parallelFor(
        0, N,
        [&](uint64_t I) {
          ++Hits[I];
          Total.fetch_add(1, std::memory_order_relaxed);
        },
        Chunk);
    EXPECT_EQ(Total.load(), N) << "trial " << Trial;
    for (uint64_t I = 0; I != N; ++I)
      ASSERT_EQ(Hits[I], 1u) << "trial " << Trial << " index " << I;
  }
}

TEST(ThreadPool, ChunksPartitionTheRange) {
  SplitMix64 Rng(42);
  for (unsigned Trial = 0; Trial != 16; ++Trial) {
    uint64_t Begin = Rng.nextBelow(50);
    uint64_t N = Rng.nextBelow(300);
    uint64_t Chunk = 1 + Rng.nextBelow(31);
    ThreadPool Pool(1 + unsigned(Rng.nextBelow(6)));
    std::vector<uint32_t> Hits(N, 0);
    Pool.parallelForChunks(Begin, Begin + N, Chunk,
                           [&](uint64_t B, uint64_t E) {
                             ASSERT_LT(B, E);
                             ASSERT_LE(E - B, Chunk);
                             ASSERT_EQ((B - Begin) % Chunk, 0u);
                             for (uint64_t I = B; I != E; ++I)
                               ++Hits[I - Begin];
                           });
    for (uint64_t I = 0; I != N; ++I)
      ASSERT_EQ(Hits[I], 1u);
  }
}

TEST(ThreadPool, EmptySubmissionsAreNoOps) {
  ThreadPool Pool(4);
  unsigned Calls = 0;
  Pool.parallelFor(5, 5, [&](uint64_t) { ++Calls; });
  Pool.parallelFor(7, 3, [&](uint64_t) { ++Calls; });
  Pool.parallelForChunks(0, 0, 8, [&](uint64_t, uint64_t) { ++Calls; });
  EXPECT_EQ(Calls, 0u);
  // And the pool still works afterwards.
  std::atomic<unsigned> Ran{0};
  Pool.parallelFor(0, 10, [&](uint64_t) { ++Ran; });
  EXPECT_EQ(Ran.load(), 10u);
}

TEST(ThreadPool, NestedSubmissionsRunInlineWithoutDeadlock) {
  ThreadPool Pool(4);
  std::atomic<uint64_t> Inner{0};
  Pool.parallelFor(0, 8, [&](uint64_t) {
    // Nested region on the same pool: must run inline, not deadlock.
    Pool.parallelFor(0, 5, [&](uint64_t) {
      Inner.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(Inner.load(), 8u * 5u);
}

TEST(ThreadPool, DoublyNestedOnGlobalPool) {
  setGlobalThreadCount(3);
  std::atomic<uint64_t> Count{0};
  ThreadPool::global().parallelFor(0, 4, [&](uint64_t) {
    ThreadPool::global().parallelFor(0, 3, [&](uint64_t) {
      ThreadPool::global().parallelFor(0, 2, [&](uint64_t) {
        Count.fetch_add(1, std::memory_order_relaxed);
      });
    });
  });
  setGlobalThreadCount(0);
  EXPECT_EQ(Count.load(), 4u * 3u * 2u);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  for (unsigned Threads : {1u, 2u, 8u}) {
    ThreadPool Pool(Threads);
    EXPECT_THROW(Pool.parallelFor(0, 100,
                                  [&](uint64_t I) {
                                    if (I == 37)
                                      throw std::runtime_error("boom");
                                  },
                                  /*ChunkSize=*/4),
                 std::runtime_error)
        << Threads << " threads";
    // The pool is reusable after a failed region.
    std::atomic<unsigned> Ran{0};
    Pool.parallelFor(0, 50, [&](uint64_t) {
      Ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(Ran.load(), 50u);
  }
}

TEST(ThreadPool, MapReduceMatchesSerialFold) {
  SplitMix64 Rng(2026);
  for (unsigned Trial = 0; Trial != 12; ++Trial) {
    uint64_t N = 1 + Rng.nextBelow(700);
    std::vector<uint64_t> Values(N);
    for (uint64_t &V : Values)
      V = Rng.nextBelow(1000000);
    uint64_t Expected = std::accumulate(Values.begin(), Values.end(),
                                        uint64_t(0));
    for (unsigned Threads : {1u, 2u, 5u}) {
      ThreadPool Pool(Threads);
      uint64_t Got = Pool.parallelMapReduce<uint64_t>(
          0, N, 0, [&](uint64_t I) { return Values[I]; },
          [](uint64_t A, uint64_t B) { return A + B; },
          Rng.nextBelow(2) ? 0 : 1 + Rng.nextBelow(64));
      EXPECT_EQ(Got, Expected) << "trial " << Trial;
    }
  }
}

TEST(ThreadPool, FloatingPointReductionIsByteIdenticalAcrossThreadCounts) {
  // The determinism contract: with the chunk size held fixed (here the
  // default, a function of N only), even a non-associative double sum must
  // come out bit-for-bit equal at every thread count.
  SplitMix64 Rng(7);
  uint64_t N = 1000;
  std::vector<double> Values(N);
  for (double &V : Values)
    V = double(Rng.next() % 100000) / 7.0;
  auto SumWith = [&](unsigned Threads) {
    ThreadPool Pool(Threads);
    return Pool.parallelMapReduce<double>(
        0, N, 0.0, [&](uint64_t I) { return Values[I]; },
        [](double A, double B) { return A + B; });
  };
  double Serial = SumWith(1);
  for (unsigned Threads : {2u, 3u, 8u}) {
    double Parallel = SumWith(Threads);
    EXPECT_EQ(std::memcmp(&Serial, &Parallel, sizeof(double)), 0)
        << Threads << " threads";
  }
}

TEST(ThreadPool, DefaultChunkSizeDependsOnlyOnRangeLength) {
  EXPECT_EQ(ThreadPool::defaultChunkSize(1), 1u);
  EXPECT_EQ(ThreadPool::defaultChunkSize(63), 1u);
  EXPECT_EQ(ThreadPool::defaultChunkSize(640), 10u);
  EXPECT_EQ(ThreadPool::defaultChunkSize(1u << 30), 1024u);
}

TEST(ThreadPool, ScgThreadsEnvControlsGlobalPool) {
  setGlobalThreadCount(0);
  {
    ScopedEnvThreads Env("1"); // forced serial mode.
    EXPECT_EQ(effectiveThreadCount(), 1u);
    EXPECT_EQ(ThreadPool::global().numThreads(), 1u);
  }
  {
    ScopedEnvThreads Env("3");
    EXPECT_EQ(threadCountFromEnv(), 3u);
    EXPECT_EQ(ThreadPool::global().numThreads(), 3u);
  }
  {
    ScopedEnvThreads Env("not-a-number");
    EXPECT_EQ(threadCountFromEnv(), 0u);
  }
  // Explicit override beats the environment.
  {
    ScopedEnvThreads Env("3");
    setGlobalThreadCount(2);
    EXPECT_EQ(effectiveThreadCount(), 2u);
    EXPECT_EQ(ThreadPool::global().numThreads(), 2u);
    setGlobalThreadCount(0);
  }
}

TEST(BatchRunner, ResultsComeBackInSubmissionOrder) {
  ThreadPool Pool(4);
  BatchRunner<uint64_t> Batch(Pool);
  for (uint64_t I = 0; I != 100; ++I)
    Batch.add([I] { return I * I; });
  EXPECT_EQ(Batch.size(), 100u);
  std::vector<uint64_t> Results = Batch.run();
  ASSERT_EQ(Results.size(), 100u);
  for (uint64_t I = 0; I != 100; ++I)
    EXPECT_EQ(Results[I], I * I);
  EXPECT_EQ(Batch.size(), 0u); // queue cleared; reusable.
  Batch.add([] { return uint64_t(7); });
  EXPECT_EQ(Batch.run().at(0), 7u);
}

namespace {

const unsigned DispatchPoolSizes[] = {2, 4, 8};

/// Long enough for every idle worker to give up spinning and park.
void letWorkersPark() {
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
}

} // namespace

TEST(ThreadPoolDispatch, BackToBackDispatchesRunEveryIndexOnceBeforeReturning) {
  constexpr uint64_t MaxChunks = 64, MaxChunk = 3, MaxBegin = 100;
  for (unsigned Threads : DispatchPoolSizes) {
    ThreadPool Pool(Threads);
    std::vector<std::atomic<uint32_t>> Hits(MaxBegin + MaxChunks * MaxChunk);
    std::atomic<uint64_t> Returned{0}; ///< dispatches that have returned.
    std::atomic<uint64_t> LateChunks{0};
    for (uint64_t D = 1; D <= 10000; ++D) {
      const uint64_t NumChunks = 2 + D % (MaxChunks - 1); // 2..64.
      const uint64_t ChunkSize = 1 + D % MaxChunk;
      const uint64_t Begin = (D * 7) % MaxBegin;
      // The last chunk is short on every other dispatch.
      const uint64_t End = Begin + NumChunks * ChunkSize - (D % 2) *
                                                             (ChunkSize - 1);
      Pool.parallelForChunks(Begin, End, ChunkSize,
                             [&](uint64_t B, uint64_t E) {
                               for (uint64_t I = B; I != E; ++I)
                                 Hits[I].fetch_add(1,
                                                   std::memory_order_relaxed);
                               if (Returned.load() >= D)
                                 LateChunks.fetch_add(1);
                             });
      Returned.store(D);
      for (uint64_t I = 0; I != Hits.size(); ++I) {
        uint32_t Want = I >= Begin && I < End;
        ASSERT_EQ(Hits[I].exchange(0), Want)
            << Threads << " threads, dispatch " << D << ", index " << I;
      }
    }
    // A chunk of an earlier dispatch still running now would count late.
    letWorkersPark();
    EXPECT_EQ(LateChunks.load(), 0u) << Threads << " threads";
  }
}

TEST(ThreadPoolDispatch, CleanDispatchAfterAThrowingOneDoesNotRethrow) {
  for (unsigned Threads : DispatchPoolSizes) {
    ThreadPool Pool(Threads);
    for (unsigned Round = 0; Round != 200; ++Round) {
      EXPECT_THROW(Pool.parallelForChunks(0, 32, 1,
                                          [&](uint64_t B, uint64_t) {
                                            if (B == Round % 32)
                                              throw std::runtime_error("boom");
                                          }),
                   std::runtime_error)
          << Threads << " threads, round " << Round;
      if (Round % 50 == 49)
        letWorkersPark();
      std::atomic<uint64_t> Ran{0};
      EXPECT_NO_THROW(Pool.parallelForChunks(
          0, 32, 1, [&](uint64_t, uint64_t) { Ran.fetch_add(1); }))
          << Threads << " threads, round " << Round;
      EXPECT_EQ(Ran.load(), 32u) << Threads << " threads, round " << Round;
    }
  }
}

TEST(ThreadPoolDispatch, SubmitterParksUntilTheLastChunkIsDone) {
  // Chunks on workers outlast the submitter's spin, so the submitter
  // parks on the done count and must be woken by the last chunk.
  for (unsigned Threads : DispatchPoolSizes) {
    ThreadPool Pool(Threads);
    const std::thread::id Submitter = std::this_thread::get_id();
    for (unsigned D = 0; D != 20; ++D) {
      std::atomic<uint64_t> Ran{0};
      Pool.parallelForChunks(0, 16, 1, [&](uint64_t, uint64_t) {
        if (std::this_thread::get_id() != Submitter)
          std::this_thread::sleep_for(std::chrono::microseconds(300));
        Ran.fetch_add(1);
      });
      EXPECT_EQ(Ran.load(), 16u) << Threads << " threads, dispatch " << D;
    }
  }
}

TEST(ThreadPoolDispatch, TwoSubmittingThreadsShareOnePool) {
  for (unsigned Threads : DispatchPoolSizes) {
    ThreadPool Pool(Threads);
    std::atomic<uint64_t> Wrong{0};
    auto Submit = [&](uint64_t Salt) {
      for (uint64_t D = 0; D != 1000; ++D) {
        const uint64_t Begin = (D + Salt) % 37;
        const uint64_t End = Begin + 16 + (D * Salt) % 200;
        const uint64_t Sum = Pool.parallelMapReduce<uint64_t>(
            Begin, End, 0, [&](uint64_t I) { return I * Salt; },
            [](uint64_t A, uint64_t B) { return A + B; }, 1 + D % 8);
        // Salt * (sum of Begin..End-1).
        const uint64_t Want = Salt * ((End - 1) * End / 2 -
                                      (Begin ? (Begin - 1) * Begin / 2 : 0));
        Wrong.fetch_add(Sum != Want);
      }
    };
    std::thread A(Submit, 3), B(Submit, 5);
    A.join();
    B.join();
    EXPECT_EQ(Wrong.load(), 0u) << Threads << " threads";
  }
}

TEST(ThreadPoolDispatch, PoolsDieCleanlyWhetherWorkersSpinOrPark) {
  for (unsigned Threads : DispatchPoolSizes) {
    for (unsigned I = 0; I != 50; ++I) {
      ThreadPool Pool(Threads);
      std::atomic<uint64_t> Ran{0};
      switch (I % 3) {
      case 0: // destroyed right after construction.
        break;
      case 1: // destroyed right after a dispatch, workers still spinning.
        Pool.parallelFor(0, 64, [&](uint64_t) { Ran.fetch_add(1); }, 1);
        EXPECT_EQ(Ran.load(), 64u);
        break;
      case 2: // a dispatch that wakes parked workers, then parked again.
        letWorkersPark();
        Pool.parallelFor(0, 64, [&](uint64_t) { Ran.fetch_add(1); }, 1);
        EXPECT_EQ(Ran.load(), 64u);
        letWorkersPark();
        break;
      }
    }
  }
}

TEST(ThreadPoolDispatch, WarmDispatchAllocatesNothing) {
  for (unsigned Threads : DispatchPoolSizes) {
    ThreadPool Pool(Threads);
    std::vector<uint64_t> Sink(64, 0);
    const std::function<void(uint64_t, uint64_t)> Body =
        [&](uint64_t B, uint64_t E) {
          for (uint64_t I = B; I != E; ++I)
            ++Sink[I];
        };
    Pool.parallelForChunks(0, 64, 1, Body); // warm.
    const uint64_t Before = test::heapAllocations();
    for (unsigned D = 0; D != 100; ++D)
      Pool.parallelForChunks(0, 64, 1 + D % 4, Body); // workers spinning.
    letWorkersPark();
    Pool.parallelForChunks(0, 64, 1, Body); // workers parked.
    EXPECT_EQ(test::heapAllocations() - Before, 0u) << Threads << " threads";
    for (uint64_t Count : Sink)
      EXPECT_EQ(Count, 102u);
  }
}
