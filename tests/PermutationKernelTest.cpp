//===- tests/PermutationKernelTest.cpp - Rank-space kernel properties ----===//
//
// Property tests for the inline-storage Permutation and the table-driven
// Lehmer kernels: algebraic laws, the hash/equality contract, round trips
// against straightforward quadratic reference implementations, spill
// behavior past the inline capacity, and the allocation-freedom guarantee
// the hot paths (compose / neighborInto / rank / unrank) rely on.
//
//===----------------------------------------------------------------------===//

#include "core/SuperCayleyGraph.h"
#include "perm/Lehmer.h"
#include "perm/Permutation.h"

#include "AllocCounter.h"
#include "Oracles.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

using namespace scg;

namespace {

//===----------------------------------------------------------------------===//
// Reference implementations: the textbook quadratic forms the optimized
// kernels must agree with exactly.
//===----------------------------------------------------------------------===//

uint64_t refRank(const Permutation &P) {
  unsigned K = P.size();
  uint64_t Rank = 0;
  for (unsigned I = 0; I != K; ++I) {
    unsigned Smaller = 0;
    for (unsigned J = I + 1; J != K; ++J)
      Smaller += P[J] < P[I];
    Rank += uint64_t(Smaller) * factorial(K - 1 - I);
  }
  return Rank;
}

Permutation refUnrank(uint64_t Rank, unsigned K) {
  std::vector<uint8_t> Pool(K);
  std::iota(Pool.begin(), Pool.end(), 0);
  std::vector<uint8_t> Word;
  for (unsigned I = 0; I != K; ++I) {
    uint64_t F = factorial(K - 1 - I);
    uint64_t Digit = Rank / F;
    Rank %= F;
    Word.push_back(Pool[Digit]);
    Pool.erase(Pool.begin() + long(Digit));
  }
  return Permutation::fromOneLine(Word);
}

Permutation refCompose(const Permutation &A, const Permutation &B) {
  std::vector<uint8_t> Word(A.size());
  for (unsigned P = 0; P != A.size(); ++P)
    Word[P] = A[B[P]];
  return Permutation::fromOneLine(Word);
}

/// Deterministic sample of ranks covering [0, k!): ends, middle, and a
/// multiplicative walk.
std::vector<uint64_t> sampleRanks(unsigned K, unsigned Count) {
  uint64_t N = factorial(K);
  std::vector<uint64_t> Ranks{0, N - 1, N / 2};
  uint64_t X = 0x2545F4914F6CDD1DULL % N;
  for (unsigned I = 0; I != Count; ++I) {
    Ranks.push_back(X);
    X = (X * 6364136223846793005ULL + 1442695040888963407ULL) % N;
  }
  return Ranks;
}

PermutationHash Hash;

//===----------------------------------------------------------------------===//
// Algebraic laws on the inline representation.
//===----------------------------------------------------------------------===//

/// A deterministic K-symbol sample: the sampled word on min(K, 12) symbols
/// extended by fixed points, then rotated by \p Salt so the tail is not
/// always fixed.
Permutation samplePerm(unsigned K, uint64_t R, unsigned Salt) {
  unsigned Base = std::min(K, 12u);
  std::vector<uint8_t> Word =
      unrankPermutation(R % factorial(Base), Base).oneLineVector();
  for (unsigned S = Base; S != K; ++S)
    Word.push_back(uint8_t(S));
  std::rotate(Word.begin(), Word.begin() + (Salt % K), Word.end());
  std::vector<uint8_t> Rotated(K);
  for (unsigned I = 0; I != K; ++I) // relabel so it stays a permutation.
    Rotated[I] = uint8_t((Word[I] + Salt) % K);
  return Permutation::fromOneLine(Rotated);
}

TEST(PermutationKernel, ComposeMatchesReferenceAndLaws) {
  for (unsigned K : {1u, 2u, 5u, 9u, 12u, 16u}) {
    Permutation Id = Permutation::identity(K);
    for (uint64_t RA : sampleRanks(std::min(K, 12u), 6)) {
      Permutation A = samplePerm(K, RA, unsigned(RA % 7));
      EXPECT_EQ(A.compose(Id), A);
      EXPECT_EQ(Id.compose(A), A);
      EXPECT_EQ(A.compose(A.inverse()), Id);
      EXPECT_EQ(A.inverse().compose(A), Id);
      for (uint64_t RB : sampleRanks(std::min(K, 12u), 3)) {
        Permutation B = samplePerm(K, RB, unsigned(RB % 5));
        // Associativity and agreement with the reference composition.
        EXPECT_EQ(A.compose(B), refCompose(A, B));
        EXPECT_EQ(A.compose(B).compose(A), A.compose(B.compose(A)));
      }
    }
  }
}

TEST(PermutationKernel, ComposeIntoAliasingIsSafe) {
  Permutation A = unrankPermutation(123456, 9);
  Permutation B = unrankPermutation(7890, 9);
  Permutation Expected = A.compose(B);
  Permutation X = A;
  X.composeInto(B, X); // Out aliases Lhs.
  EXPECT_EQ(X, Expected);
  Permutation Y = B;
  A.composeInto(Y, Y); // Out aliases Rhs.
  EXPECT_EQ(Y, Expected);
}

TEST(PermutationKernel, SignMatchesInversionParity) {
  for (unsigned K : {2u, 5u, 8u}) {
    for (uint64_t R : sampleRanks(K, 10)) {
      Permutation P = unrankPermutation(R, K);
      unsigned Inversions = 0;
      for (unsigned I = 0; I != K; ++I)
        for (unsigned J = I + 1; J != K; ++J)
          Inversions += P[J] < P[I];
      EXPECT_EQ(oracle::sign(P), Inversions % 2 == 0 ? 1 : -1) << P.str();
      EXPECT_EQ(oracle::sign(P) * oracle::sign(P.inverse()), 1);
    }
  }
}

TEST(PermutationKernel, CyclesReconstructThePermutation) {
  for (uint64_t R : sampleRanks(8, 12)) {
    Permutation P = unrankPermutation(R, 8);
    std::vector<uint8_t> Image(8);
    std::iota(Image.begin(), Image.end(), 0);
    uint8_t PrevMin = 0;
    bool First = true;
    for (const std::vector<uint8_t> &Cycle : P.nontrivialCycles()) {
      ASSERT_GE(Cycle.size(), 2u);
      // Canonical form: each cycle starts at its smallest symbol, cycles
      // ordered by that smallest symbol.
      EXPECT_EQ(Cycle.front(), *std::min_element(Cycle.begin(), Cycle.end()));
      EXPECT_TRUE(First || Cycle.front() > PrevMin);
      PrevMin = Cycle.front();
      First = false;
      for (unsigned I = 0; I != Cycle.size(); ++I)
        Image[Cycle[I]] = P[Cycle[I]];
    }
    for (unsigned S = 0; S != 8; ++S)
      EXPECT_EQ(Image[S], P[S]);
  }
}

//===----------------------------------------------------------------------===//
// Hash / equality contract.
//===----------------------------------------------------------------------===//

TEST(PermutationKernel, EqualityAndHashContract) {
  // Equal values hash equally, regardless of how the value was produced.
  Permutation A = unrankPermutation(40319, 8);
  Permutation B = Permutation::fromOneLine(A.oneLineVector());
  Permutation C = A.compose(Permutation::identity(8));
  EXPECT_EQ(A, B);
  EXPECT_EQ(A, C);
  EXPECT_EQ(Hash(A), Hash(B));
  EXPECT_EQ(Hash(A), Hash(C));

  // Same word, different sizes: distinct values.
  Permutation Id5 = Permutation::identity(5);
  Permutation Id6 = Permutation::identity(6);
  EXPECT_FALSE(Id5 == Id6);
  EXPECT_NE(Hash(Id5), Hash(Id6));

  // Over all of S_6, the word-at-a-time hash is collision-free (the 720
  // zero-padded words are distinct 64-bit values pushed through a
  // bijective-ish mix; a collision here means the mixing regressed).
  std::set<size_t> Hashes;
  for (uint64_t R = 0; R != factorial(6); ++R)
    Hashes.insert(Hash(unrankPermutation(R, 6)));
  EXPECT_EQ(Hashes.size(), factorial(6));
}

TEST(PermutationKernel, LexOrderMatchesRankOrder) {
  unsigned K = 6;
  for (uint64_t R = 1; R != factorial(K); ++R)
    EXPECT_LT(unrankPermutation(R - 1, K), unrankPermutation(R, K));
}

//===----------------------------------------------------------------------===//
// Lehmer round trips against the quadratic references.
//===----------------------------------------------------------------------===//

TEST(PermutationKernel, RankUnrankRoundTripExhaustiveSmallK) {
  for (unsigned K = 0; K <= 8; ++K) {
    for (uint64_t R = 0; R != factorial(K); ++R) {
      Permutation P = unrankPermutation(R, K);
      EXPECT_EQ(P, refUnrank(R, K));
      EXPECT_EQ(rankPermutation(P), R);
      EXPECT_EQ(refRank(P), R);
    }
  }
}

TEST(PermutationKernel, RankUnrankRoundTripSampledLargeK) {
  // Up to the inline capacity: the rank kernel's last counter nibble is
  // only read at k = 16.
  for (unsigned K = 9; K <= 16; ++K) {
    for (uint64_t R : sampleRanks(K, 50)) {
      Permutation P = unrankPermutation(R, K);
      EXPECT_EQ(P, refUnrank(R, K));
      EXPECT_EQ(rankPermutation(P), R);
      EXPECT_EQ(refRank(P), R);
    }
  }
}

TEST(PermutationKernel, LehmerCodeAgreesWithRank) {
  for (unsigned K : {4u, 7u, 12u}) {
    for (uint64_t R : sampleRanks(K, 10)) {
      Permutation P = unrankPermutation(R, K);
      std::vector<uint8_t> Code = oracle::lehmerCode(P);
      uint64_t Rank = 0;
      for (unsigned I = 0; I != K; ++I)
        Rank += uint64_t(Code[I]) * factorial(K - 1 - I);
      EXPECT_EQ(Rank, R);
      EXPECT_EQ(fromLehmerCode(Code), P);
    }
  }
}

//===----------------------------------------------------------------------===//
// Spill regime: k past the inline capacity still obeys the full API.
//===----------------------------------------------------------------------===//

TEST(PermutationKernel, SpilledStorageBehavesLikeInline) {
  unsigned K = 40;
  std::vector<uint8_t> Word(K);
  for (unsigned I = 0; I != K; ++I)
    Word[I] = uint8_t((I + 7) % K);
  Permutation P = Permutation::fromOneLine(Word);
  EXPECT_FALSE(P.isInline());
  EXPECT_TRUE(Permutation::identity(16).isInline());
  EXPECT_FALSE(Permutation::identity(17).isInline());

  // Copy / move / equality / hash.
  Permutation Copy = P;
  EXPECT_EQ(Copy, P);
  EXPECT_EQ(Hash(Copy), Hash(P));
  Permutation Moved = std::move(Copy);
  EXPECT_EQ(Moved, P);

  // Algebra through the slow path matches the reference.
  Permutation Id = Permutation::identity(K);
  EXPECT_EQ(P.compose(P.inverse()), Id);
  EXPECT_EQ(P.compose(Id), P);
  Permutation Q = P.compose(P);
  EXPECT_EQ(Q, refCompose(P, P));
  Permutation X = P;
  X.composeInto(P, X);
  EXPECT_EQ(X, Q);

  // A k-cycle: one nontrivial cycle of length k, sign (-1)^(k-1).
  EXPECT_EQ(P.nontrivialCycles().size(), 1u);
  EXPECT_EQ(P.nontrivialCycles()[0].size(), size_t(K));
  EXPECT_EQ(oracle::sign(P), K % 2 == 1 ? 1 : -1);
  EXPECT_EQ(P.numDisplaced(), K);

  // Lehmer code round trip in the generic (any-k) form.
  EXPECT_EQ(fromLehmerCode(oracle::lehmerCode(P)), P);

  // Mixed-size inequality against an inline value.
  EXPECT_FALSE(P == Permutation::identity(9));
}

//===----------------------------------------------------------------------===//
// Allocation freedom: the hot kernels never touch the heap for k <= 16.
//===----------------------------------------------------------------------===//

TEST(PermutationKernel, HotKernelsAreAllocationFree) {
  unsigned K = 12;
  SuperCayleyGraph Net = SuperCayleyGraph::star(K);
  GenIndex Degree = Net.degree();
  Permutation U = unrankPermutation(478001599, K); // 12! - 1: worst digits.
  Permutation V;
  uint64_t Acc = 0;

  uint64_t Before = test::heapAllocations();
  for (unsigned Round = 0; Round != 1000; ++Round) {
    Net.neighborInto(U, Round % Degree, V);     // compose via generator.
    Acc += rankPermutation(V);                  // rank.
    U = unrankPermutation(Acc % factorial(K), K); // unrank + move-assign.
    U.composeInto(V, V);                        // aliased compose.
  }
  uint64_t After = test::heapAllocations();

  EXPECT_EQ(After, Before) << "hot kernels allocated on k = " << K;
  EXPECT_NE(Acc, 0u); // keep the loop observable.
}

TEST(PermutationKernel, CopyAndHashAreAllocationFreeInline) {
  Permutation P = unrankPermutation(362879, 9);
  uint64_t Before = test::heapAllocations();
  Permutation Q = P;
  Permutation R = std::move(Q);
  size_t H = Hash(R);
  bool Eq = R == P;
  uint64_t After = test::heapAllocations();
  EXPECT_EQ(After, Before);
  EXPECT_TRUE(Eq);
  EXPECT_NE(H, 0u);
}

} // namespace
