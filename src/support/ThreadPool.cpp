//===- support/ThreadPool.cpp - Deterministic chunked parallelism --------===//

#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <utility>

using namespace scg;

namespace {

/// True while the current thread is executing chunks of some job; nested
/// submissions from such a thread run inline to avoid deadlocking on the
/// pool's single job slot.
thread_local bool InParallelRegion = false;

/// Requested size for the global pool (0 = automatic).
std::atomic<unsigned> GlobalOverride{0};

struct RegionGuard {
  bool Saved = InParallelRegion;
  RegionGuard() { InParallelRegion = true; }
  ~RegionGuard() { InParallelRegion = Saved; }
};

using Clock = std::chrono::steady_clock;

/// How long an idle worker, or a submitter waiting for its chunks, spins
/// before it parks. Long enough to bridge the serial gap between the two
/// dispatches of a simulator step, short enough that idle workers leave
/// the cores to other work soon after a pooled loop ends (EXPERIMENTS.md
/// E35).
constexpr auto SpinFor = std::chrono::microseconds(30);

/// Spin iterations between two clock reads.
constexpr unsigned SpinClockEvery = 64;

void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spins until \p Ready() holds (true) or SpinFor has passed (false).
template <typename Fn> bool spinUntil(Fn Ready) {
  if (Ready())
    return true;
  const Clock::time_point Deadline = Clock::now() + SpinFor;
  for (unsigned I = 1;; ++I) {
    cpuRelax();
    if (Ready())
      return true;
    if (I % SpinClockEvery == 0 && Clock::now() >= Deadline)
      return false;
  }
}

/// A worker's own cache line, which the submitter reads before it rewrites
/// the slot and when it wakes workers.
struct alignas(64) WorkerLine {
  /// 1 while the worker is parked (or about to park); cleared by the
  /// thread that wakes it.
  std::atomic<uint32_t> Parked{0};
  /// 1 while the worker is inside a job.
  std::atomic<uint32_t> InJob{0};
};

} // namespace

unsigned scg::threadCountFromEnv() {
  const char *Text = std::getenv("SCG_THREADS");
  if (!Text || !*Text)
    return 0;
  char *End = nullptr;
  long Value = std::strtol(Text, &End, 10);
  if (End == Text || *End != '\0' || Value < 1)
    return 0;
  return unsigned(std::min(Value, 1024L));
}

unsigned scg::defaultThreadCount() {
  if (unsigned FromEnv = threadCountFromEnv())
    return FromEnv;
  unsigned Hardware = std::thread::hardware_concurrency();
  return Hardware ? Hardware : 1;
}

void scg::setGlobalThreadCount(unsigned Count) {
  GlobalOverride.store(Count, std::memory_order_relaxed);
}

unsigned scg::effectiveThreadCount() {
  if (unsigned Override = GlobalOverride.load(std::memory_order_relaxed))
    return Override;
  return defaultThreadCount();
}

/// The pool's one job slot, reused by every dispatch.
struct ThreadPool::Slot {
  explicit Slot(unsigned NumWorkers) : Lines(NumWorkers) {}

  /// Even while a job is open, odd while the slot is closed: between jobs
  /// and while it is rewritten. Idle workers spin on this line.
  alignas(64) std::atomic<uint64_t> Epoch{1};
  /// Set by the destructor before its last epoch bump.
  std::atomic<bool> Stop{false};

  // The job line, written by the owning submitter only while the slot is
  // closed and no worker is inside it. The claim cursor shares the line,
  // so a joining worker gets the job and its first claim in one transfer.
  alignas(64) uint64_t Begin = 0;
  uint64_t End = 0;
  uint64_t ChunkSize = 1;
  uint64_t NumChunks = 0;
  /// ChunksDone once this job's last chunk is done. The done count runs
  /// on across jobs, so a dispatch need not reset it.
  uint64_t DoneTarget = 0;
  const std::function<void(uint64_t, uint64_t)> *Chunk = nullptr;
  std::atomic<uint64_t> NextChunk{0};

  // The done line: one add per participant and job, polled by the
  // submitter, which finds the error state on the same line.
  alignas(64) std::atomic<uint64_t> ChunksDone{0};
  /// 1 while the submitter is parked (or about to park) on ChunksDone.
  std::atomic<uint32_t> CallerParked{0};
  std::atomic<bool> Failed{false};
  std::exception_ptr Error; ///< the job's first chunk failure.

  /// Set while a non-pool thread owns the slot. Only submitters touch
  /// this line.
  alignas(64) std::atomic<bool> Busy{false};
  std::vector<WorkerLine> Lines; ///< one per worker.

  /// Claims and runs chunks until none is left. Called by the submitter
  /// and by every worker that joined the job.
  void runChunks() {
    RegionGuard Guard;
    uint64_t Ran = 0;
    for (uint64_t C; (C = NextChunk.fetch_add(1, std::memory_order_relaxed)) <
                     NumChunks;
         ++Ran) {
      if (Failed.load(std::memory_order_relaxed))
        continue;
      uint64_t B = Begin + C * ChunkSize;
      try {
        (*Chunk)(B, std::min(End, B + ChunkSize));
      } catch (...) {
        if (!Failed.exchange(true, std::memory_order_relaxed))
          Error = std::current_exception();
      }
    }
    // One add per thread and job. The increment chain makes every chunk's
    // writes (and Error) visible to the submitter once it observes
    // DoneTarget.
    if (Ran &&
        ChunksDone.fetch_add(Ran, std::memory_order_seq_cst) + Ran ==
            DoneTarget &&
        CallerParked.load(std::memory_order_seq_cst) &&
        CallerParked.exchange(0, std::memory_order_seq_cst))
      CallerParked.notify_one();
  }

  /// Wakes parked workers until \p Want are awake. Runs after the epoch
  /// store, so a worker read as awake here sees the new epoch before it
  /// could park.
  void wake(uint64_t Want) {
    uint64_t Awake = 0;
    for (WorkerLine &L : Lines)
      Awake += L.Parked.load(std::memory_order_seq_cst) == 0;
    for (WorkerLine &L : Lines) {
      if (Awake >= Want)
        return;
      if (L.Parked.load(std::memory_order_relaxed) &&
          L.Parked.exchange(0, std::memory_order_seq_cst)) {
        L.Parked.notify_one();
        ++Awake;
      }
    }
  }

  /// Waits for an open job other than \p Seen, spinning and then parking
  /// on \p L; returns its epoch.
  uint64_t awaitJob(uint64_t Seen, WorkerLine &L) {
    uint64_t E = Seen;
    auto Open = [&] { return E % 2 == 0 && E != Seen; };
    if (spinUntil([&] {
          E = Epoch.load(std::memory_order_acquire);
          return Open();
        }))
      return E;
    while (true) {
      // Park word before epoch here, epoch before park word in wake():
      // one of the two sees the other's store.
      L.Parked.store(1, std::memory_order_seq_cst);
      E = Epoch.load(std::memory_order_seq_cst);
      if (Open()) {
        L.Parked.store(0, std::memory_order_relaxed);
        return E;
      }
      L.Parked.wait(1, std::memory_order_acquire);
    }
  }

  /// The submitter's wait for the last chunk: spin, then park.
  void awaitDone() {
    auto Done = [&] {
      return ChunksDone.load(std::memory_order_seq_cst) == DoneTarget;
    };
    if (spinUntil(Done))
      return;
    while (true) {
      CallerParked.store(1, std::memory_order_seq_cst);
      if (Done())
        break;
      CallerParked.wait(1, std::memory_order_acquire);
    }
    CallerParked.store(0, std::memory_order_relaxed);
  }
};

ThreadPool::ThreadPool(unsigned ThreadCount)
    : Count(ThreadCount ? ThreadCount : defaultThreadCount()),
      Job(std::make_unique<Slot>(Count - 1)) {
  Workers.reserve(Count - 1);
  for (unsigned I = 1; I < Count; ++I)
    Workers.emplace_back([this, I] { workerMain(I - 1); });
}

ThreadPool::~ThreadPool() {
  Slot &S = *Job;
  S.Stop.store(true, std::memory_order_seq_cst);
  S.Epoch.store(S.Epoch.load(std::memory_order_relaxed) + 1,
                std::memory_order_seq_cst); // opens a "job" of Stop.
  for (WorkerLine &L : S.Lines)
    if (L.Parked.exchange(0, std::memory_order_seq_cst))
      L.Parked.notify_one();
  for (std::thread &Worker : Workers)
    Worker.join();
}

uint64_t ThreadPool::defaultChunkSize(uint64_t N) {
  // Small chunks keep the load balanced across threads of unequal speed;
  // the atomic claim per chunk is negligible next to a BFS or a routing
  // simulation. Depends only on N (see the determinism contract).
  return std::clamp<uint64_t>(N / 64, 1, 1024);
}

void ThreadPool::parallelForChunks(
    uint64_t Begin, uint64_t End, uint64_t ChunkSize,
    const std::function<void(uint64_t, uint64_t)> &Chunk) {
  if (Begin >= End)
    return;
  uint64_t N = End - Begin;
  if (ChunkSize == 0)
    ChunkSize = defaultChunkSize(N);
  uint64_t NumChunks = (N + ChunkSize - 1) / ChunkSize;
  Slot &S = *Job;

  // Serial path: forced-serial pools, nested submissions, nothing to
  // share, or another thread owns the slot. Exceptions propagate directly.
  if (Count == 1 || InParallelRegion || NumChunks == 1 ||
      S.Busy.exchange(true, std::memory_order_acquire)) {
    RegionGuard Guard;
    for (uint64_t C = 0; C != NumChunks; ++C) {
      uint64_t B = Begin + C * ChunkSize;
      Chunk(B, std::min(End, B + ChunkSize));
    }
    return;
  }

  // The slot is closed. A worker still inside the previous job can only
  // be failing its last claim; let it leave before the slot is rewritten.
  for (WorkerLine &L : S.Lines) {
    auto Left = [&] { return L.InJob.load(std::memory_order_seq_cst) == 0; };
    if (!spinUntil(Left))
      while (!Left())
        std::this_thread::yield();
  }
  S.Begin = Begin;
  S.End = End;
  S.ChunkSize = ChunkSize;
  S.NumChunks = NumChunks;
  S.DoneTarget += NumChunks;
  S.Chunk = &Chunk;
  S.NextChunk.store(0, std::memory_order_relaxed);
  const uint64_t Open = S.Epoch.load(std::memory_order_relaxed) + 1;
  S.Epoch.store(Open, std::memory_order_seq_cst);

  S.wake(std::min<uint64_t>(NumChunks - 1, Count - 1));
  S.runChunks(); // the submitting thread participates.
  S.awaitDone();
  S.Epoch.store(Open + 1, std::memory_order_seq_cst); // close the slot.

  std::exception_ptr Error;
  if (S.Failed.load(std::memory_order_relaxed)) {
    Error = std::exchange(S.Error, nullptr);
    S.Failed.store(false, std::memory_order_relaxed);
  }
  S.Busy.store(false, std::memory_order_release);
  if (Error)
    std::rethrow_exception(Error);
}

void ThreadPool::workerMain(unsigned Index) {
  Slot &S = *Job;
  WorkerLine &L = S.Lines[Index];
  uint64_t Seen = 0;
  while (true) {
    uint64_t E = S.awaitJob(Seen, L);
    if (S.Stop.load(std::memory_order_acquire))
      return;
    // Register, then check the job is still open: either the submitter's
    // close comes after this registration, and it waits for the leave
    // below before rewriting the slot, or this load sees the close.
    L.InJob.store(1, std::memory_order_seq_cst);
    if (S.Epoch.load(std::memory_order_seq_cst) == E) {
      S.runChunks();
      Seen = E;
    }
    L.InJob.store(0, std::memory_order_release);
  }
}

ThreadPool &ThreadPool::global() {
  static std::mutex PoolMu;
  static std::unique_ptr<ThreadPool> Pool;
  static unsigned PoolSize = 0;
  std::lock_guard<std::mutex> Lock(PoolMu);
  unsigned Want = effectiveThreadCount();
  if (!Pool || PoolSize != Want) {
    Pool.reset(); // join the old workers before replacing them.
    Pool = std::make_unique<ThreadPool>(Want);
    PoolSize = Want;
  }
  return *Pool;
}
