//===- tests/AllocCounter.cpp - Heap allocation counter -------------------===//

#include "AllocCounter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<uint64_t> HeapAllocations{0};
} // namespace

uint64_t scg::test::heapAllocations() { return HeapAllocations.load(); }

// Every form is replaced, so each allocation is counted and freed by the
// matching replacement. The plain forms stay out of line, so the compiler
// does not pair an inlined malloc() or free() with a call it can see and
// warn about a mismatch.
[[gnu::noinline]] void *operator new(std::size_t Size) {
  ++HeapAllocations;
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Size) { return ::operator new(Size); }
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  ++HeapAllocations;
  return std::malloc(Size ? Size : 1);
}
void *operator new[](std::size_t Size, const std::nothrow_t &) noexcept {
  return ::operator new(Size, std::nothrow);
}
[[gnu::noinline]] void operator delete(void *P) noexcept { std::free(P); }
[[gnu::noinline]] void operator delete(void *P, std::size_t) noexcept {
  std::free(P);
}
void operator delete[](void *P) noexcept { ::operator delete(P); }
void operator delete[](void *P, std::size_t) noexcept { ::operator delete(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept {
  ::operator delete(P);
}
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  ::operator delete(P);
}
