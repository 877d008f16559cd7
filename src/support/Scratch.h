//===- support/Scratch.h - Per-thread reusable scratch buffers -*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// threadScratch<T>(): one lazily constructed T per (thread, type), reused
/// across calls. This is the allocation-reuse hook the batched engines lean
/// on: a sweep that runs tens of thousands of batches through the
/// ThreadPool must not pay a malloc / page-fault storm of three bitmap
/// arrays per batch (56k batches at star k = 10), so each worker keeps one
/// warm scratch object and every batch assign()s into it.
///
/// Contracts:
///  * Determinism: scratch holds no state that survives into results --
///    callers must fully reinitialize (assign/clear) every field they
///    read. Reuse changes where the bytes live, never what they hold.
///  * Lifetime: the instance dies with its thread. ThreadPool workers are
///    torn down whenever the global pool is resized, so scratch memory
///    never outlives a pool generation.
///  * Reentrancy: a function holding a threadScratch<T>() reference must
///    not (transitively) call another function that takes
///    threadScratch<T>() of the same T on the same thread. Engines that
///    may nest take an explicit scratch parameter instead.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_SUPPORT_SCRATCH_H
#define SCG_SUPPORT_SCRATCH_H

#include <cstddef>
#include <cstdint>
#include <vector>

#ifdef __linux__
#include <sys/mman.h>
#endif

namespace scg {

/// The calling thread's scratch instance of \p T (default-constructed on
/// first use, reused afterwards). Function-local statics in templates are
/// ODR-merged, so every translation unit sees the same per-thread object.
template <typename T> T &threadScratch() {
  thread_local T Scratch;
  return Scratch;
}

/// Grows \p Buf's capacity to \p Elems and, when the buffer spans at
/// least one 2 MiB huge page, asks the kernel to back it with huge pages
/// (MADV_HUGEPAGE) before the caller first touches it. Multi-megabyte
/// scratch arrays accessed at random (the distance engine's bitmaps from
/// k = 9 up) are dTLB-bound on 4 KiB pages. Pure
/// hint: a refusing kernel (or non-Linux host) changes nothing
/// observable, so callers never need to check for success.
template <typename T>
void reserveHugePages(std::vector<T> &Buf, size_t Elems) {
  if (Buf.capacity() >= Elems)
    return;
  Buf.reserve(Elems);
#ifdef __linux__
  constexpr uintptr_t HugePage = uintptr_t(2) << 20;
  constexpr uintptr_t Page = 4096;
  uintptr_t Begin = (uintptr_t(Buf.data()) + Page - 1) & ~(Page - 1);
  uintptr_t End = uintptr_t(Buf.data() + Buf.capacity());
  if (End - Begin >= HugePage)
    madvise(reinterpret_cast<void *>(Begin), End - Begin, MADV_HUGEPAGE);
#endif
}

} // namespace scg

#endif // SCG_SUPPORT_SCRATCH_H
