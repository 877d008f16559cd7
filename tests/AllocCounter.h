//===- tests/AllocCounter.h - Heap allocation counter ----------*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A count of every heap allocation the test binary makes. AllocCounter.cpp
/// replaces the global operator new and delete (plain, array and nothrow
/// forms), so a test that snapshots the count around a warm loop proves
/// the loop never touches the heap. Link AllocCounter.cpp into a test
/// through scg_test's SOURCES; the replacement covers the whole binary.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_TESTS_ALLOCCOUNTER_H
#define SCG_TESTS_ALLOCCOUNTER_H

#include <cstdint>

namespace scg::test {

/// Heap allocations made by this binary so far, on any thread.
uint64_t heapAllocations();

} // namespace scg::test

#endif // SCG_TESTS_ALLOCCOUNTER_H
