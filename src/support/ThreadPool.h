//===- support/ThreadPool.h - Deterministic chunked parallelism -*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size thread pool with a chunked, work-stealing-free
/// parallelFor / parallelMapReduce API designed for determinism: given the
/// same input range and chunk size, parallelMapReduce produces byte-identical
/// results at every thread count, because per-chunk partial results are
/// folded in chunk-index order after the parallel region, and the default
/// chunk size depends only on the range length (never on the thread count).
/// The graph sweeps (msAllPairsStats, fault sweeps, batch permutation
/// routing) rely on this contract, and tests/ParallelDifferentialTest.cpp
/// pins it.
///
/// Thread-count resolution for the process-global pool, in precedence order:
/// setGlobalThreadCount() override, the SCG_THREADS environment variable,
/// std::thread::hardware_concurrency(). A count of 1 is a forced serial
/// mode: no worker threads are spawned and every region runs inline on the
/// calling thread.
///
/// Nested parallel regions (submissions from inside a worker) run inline
/// serially on the submitting thread, so nesting can never deadlock.
///
/// Dispatch. The pool owns one reusable job slot (bounds, chunk size and
/// count, body pointer, claim and done counters, error state), so a
/// dispatch allocates nothing and takes no lock. Between jobs the slot is
/// closed: a 64-bit epoch is odd. The submitter waits for any worker still
/// inside the previous job to leave (all it can still do there is fail a
/// chunk claim), rewrites the slot, publishes it by making the epoch even,
/// and closes it again once the last chunk is done. An idle worker spins
/// on the epoch for about 30 us, then parks on a word of its own with
/// std::atomic::wait. The submitter wakes at most min(chunks - 1,
/// threads - 1) workers, counting the ones still awake, and wakes only
/// parked ones; then it runs chunks itself and waits for the done count
/// the same way, spinning and then parking. A worker joins a job by
/// registering and then re-reading the epoch, so it can never claim a
/// chunk of one job with the bounds of another. Two non-pool threads may
/// submit at once: the first takes the slot, and the other runs its
/// region inline over the same chunks.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_SUPPORT_THREADPOOL_H
#define SCG_SUPPORT_THREADPOOL_H

#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

namespace scg {

/// Thread count requested by the SCG_THREADS environment variable, or 0 if
/// unset/unparsable. Values are clamped to [1, 1024].
unsigned threadCountFromEnv();

/// Automatic pool size: SCG_THREADS if set, else hardware concurrency
/// (at least 1).
unsigned defaultThreadCount();

/// Overrides the size of the process-global pool; 0 restores automatic
/// sizing. Takes effect on the next ThreadPool::global() call; must not be
/// called while parallel work is in flight.
void setGlobalThreadCount(unsigned Count);

/// The size ThreadPool::global() resolves to right now.
unsigned effectiveThreadCount();

/// Fixed-size pool executing chunked parallel loops. The calling thread
/// always participates, so a pool of size T uses T-1 workers.
class ThreadPool {
public:
  /// Creates a pool of \p ThreadCount threads (0 = defaultThreadCount()).
  /// Size 1 spawns no workers and runs everything inline.
  explicit ThreadPool(unsigned ThreadCount = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned numThreads() const { return Count; }

  /// Chunk size used for a range of length \p N when the caller passes 0.
  /// A function of N only -- never of the thread count -- so that chunk
  /// boundaries, and therefore reduction grouping, are identical at every
  /// thread count.
  static uint64_t defaultChunkSize(uint64_t N);

  /// Runs \p Chunk(B, E) over consecutive subranges [B, E) covering
  /// [\p Begin, \p End) in chunks of \p ChunkSize (0 = default). Chunks are
  /// claimed by an atomic cursor in index order; the caller participates.
  /// The first exception thrown by any chunk is rethrown here (remaining
  /// unstarted chunks are skipped once a chunk has failed).
  void parallelForChunks(uint64_t Begin, uint64_t End, uint64_t ChunkSize,
                         const std::function<void(uint64_t, uint64_t)> &Chunk);

  /// Runs \p Body(I) for every I in [\p Begin, \p End), chunked as above.
  void parallelFor(uint64_t Begin, uint64_t End,
                   const std::function<void(uint64_t)> &Body,
                   uint64_t ChunkSize = 0) {
    parallelForChunks(Begin, End, ChunkSize,
                      [&Body](uint64_t B, uint64_t E) {
                        for (uint64_t I = B; I != E; ++I)
                          Body(I);
                      });
  }

  /// Maps [\p Begin, \p End) through \p Map and folds with \p Reduce.
  /// \p Identity must be the identity of \p Reduce. Each chunk folds its
  /// indices in ascending order into a per-chunk partial; partials are then
  /// folded in chunk-index order on the calling thread, so the result is
  /// byte-identical to the serial left fold whenever \p ChunkSize (or the
  /// default) is held fixed -- even for non-associative reductions such as
  /// floating-point sums.
  template <typename R, typename MapFn, typename ReduceFn>
  R parallelMapReduce(uint64_t Begin, uint64_t End, R Identity, MapFn Map,
                      ReduceFn Reduce, uint64_t ChunkSize = 0) {
    if (Begin >= End)
      return Identity;
    uint64_t N = End - Begin;
    if (ChunkSize == 0)
      ChunkSize = defaultChunkSize(N);
    uint64_t NumChunks = (N + ChunkSize - 1) / ChunkSize;
    std::vector<R> Partials(NumChunks, Identity);
    parallelForChunks(Begin, End, ChunkSize,
                      [&](uint64_t B, uint64_t E) {
                        uint64_t C = (B - Begin) / ChunkSize;
                        R Acc = std::move(Partials[C]);
                        for (uint64_t I = B; I != E; ++I)
                          Acc = Reduce(std::move(Acc), Map(I));
                        Partials[C] = std::move(Acc);
                      });
    R Total = std::move(Identity);
    for (R &Partial : Partials)
      Total = Reduce(std::move(Total), std::move(Partial));
    return Total;
  }

  /// The process-global pool, sized by effectiveThreadCount() and rebuilt
  /// when that count changes.
  static ThreadPool &global();

private:
  struct Slot;

  void workerMain(unsigned Index);

  unsigned Count;
  std::unique_ptr<Slot> Job; ///< the job slot, made once with the pool.
  std::vector<std::thread> Workers;
};

} // namespace scg

#endif // SCG_SUPPORT_THREADPOOL_H
