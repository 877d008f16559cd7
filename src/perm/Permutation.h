//===- perm/Permutation.h - Dense permutations on k symbols ----*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dense permutations of {0, ..., k-1}, the label algebra underlying every
/// super Cayley graph in the paper. A node label "u_1 u_2 ... u_k" from the
/// paper (positions and symbols 1-based) is stored 0-based: entry(P) is the
/// symbol at position P. Generators are themselves permutations of positions
/// acting by right composition: applying generator Sigma to label U yields
/// V with V[P] = U[Sigma[P]], i.e. V = U o Sigma (see DESIGN.md section 1).
///
/// Storage is a 16-byte small buffer: every label the rank-space kernels
/// (compose, rank, unrank, BFS hops) ever touch has k <= 16, lives inline,
/// and is zero-padded past size() so equality and hashing are two aligned
/// 64-bit loads. Larger k (the symbolic schedule algebra and group-order
/// certificates go up to k = 65) spills to a heap word; none of those paths
/// are hot. See DESIGN.md section 7 for the invariants.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_PERM_PERMUTATION_H
#define SCG_PERM_PERMUTATION_H

#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace scg {

/// A permutation of {0, ..., k-1} in one-line notation.
///
/// Supports k up to 255 (symbols are stored as uint8_t). Labels with
/// k <= InlineCapacity = 16 are stored inline and are allocation-free to
/// create, copy, compose, and hash -- the explicit graph algorithms only
/// enumerate up to k = 10 (k! nodes) and the benches route symbolically up
/// to k = 13, so the entire hot path stays in registers and L1.
class Permutation {
public:
  /// Inline small-buffer capacity; beyond it the word lives on the heap.
  static constexpr unsigned InlineCapacity = 16;

  /// Constructs the empty (k = 0) permutation.
  Permutation() = default;

  Permutation(const Permutation &Rhs) { copyFrom(Rhs); }
  Permutation &operator=(const Permutation &Rhs) {
    if (this != &Rhs) {
      destroy();
      copyFrom(Rhs);
    }
    return *this;
  }
  Permutation(Permutation &&Rhs) noexcept { moveFrom(Rhs); }
  Permutation &operator=(Permutation &&Rhs) noexcept {
    if (this != &Rhs) {
      destroy();
      moveFrom(Rhs);
    }
    return *this;
  }
  ~Permutation() { destroy(); }

  /// Constructs the identity permutation on \p K symbols.
  static Permutation identity(unsigned K);

  /// Constructs a permutation from one-line notation; \p OneLine must contain
  /// each of 0..size-1 exactly once (asserted).
  static Permutation fromOneLine(std::vector<uint8_t> OneLine);

  /// Constructs from a raw one-line word of \p K symbols. The kernel-layer
  /// entry point (unranking, chunked enumeration): no container round trip.
  /// \p Word must be a permutation of 0..K-1 (asserted).
  static Permutation fromWord(const uint8_t *Word, unsigned K);

  /// Parses "3 1 2" style 1-based one-line notation (the paper's convention);
  /// returns the empty permutation on malformed input.
  static Permutation parseOneBased(const std::string &Text);

  /// Returns the number of symbols k.
  unsigned size() const { return Size; }

  /// Returns the symbol at (0-based) position \p Pos.
  uint8_t operator[](unsigned Pos) const {
    assert(Pos < Size && "position out of range");
    return data()[Pos];
  }

  /// Returns this o Rhs: (this o Rhs)[P] = this[Rhs[P]]. When \p Rhs is a
  /// generator acting on positions, this is one hop along that generator.
  Permutation compose(const Permutation &Rhs) const {
    Permutation Result;
    composeInto(Rhs, Result);
    return Result;
  }

  /// Computes this o Rhs into \p Out. Allocation-free for inline sizes
  /// (k <= 16), and \p Out may alias this or \p Rhs: one graph hop is a
  /// single in-place word permute.
  void composeInto(const Permutation &Rhs, Permutation &Out) const {
    assert(Size == Rhs.Size && "size mismatch in composition");
    if (isInline()) {
      const uint8_t *A = Inline, *B = Rhs.Inline;
      uint8_t Tmp[InlineCapacity] = {};
      for (unsigned P = 0; P != Size; ++P)
        Tmp[P] = A[B[P]];
      Out.destroy();
      std::memcpy(Out.Inline, Tmp, InlineCapacity);
      Out.Size = Size;
      return;
    }
    composeIntoSlow(Rhs, Out);
  }

  /// Returns the inverse permutation.
  Permutation inverse() const;

  /// Applies generator \p Sigma (a permutation of positions) to this label:
  /// shorthand for compose(Sigma).
  Permutation applyGenerator(const Permutation &Sigma) const {
    return compose(Sigma);
  }

  /// Returns true if this is the identity.
  bool isIdentity() const;

  /// Returns the cycles of length >= 2, each cycle listed as the sequence of
  /// symbols it moves, canonicalized to start at the smallest symbol, cycles
  /// sorted by their smallest symbol.
  std::vector<std::vector<uint8_t>> nontrivialCycles() const;

  /// Returns the number of symbols s with perm[s] != s.
  unsigned numDisplaced() const;

  /// Renders 1-based one-line notation, e.g. "3 1 2".
  std::string str() const;

  /// Renders the ball-arrangement-game view with \p N balls per box:
  /// "0 | 1 2 | 4 3" (outside ball, then l boxes). Requires size == l*n+1.
  std::string strBoxes(unsigned N) const;

  /// Equality: word-at-a-time for inline sizes (the zero-padding invariant
  /// makes two 64-bit compares sufficient), memcmp for spilled ones.
  bool operator==(const Permutation &Rhs) const {
    if (Size != Rhs.Size)
      return false;
    if (isInline())
      return loWord() == Rhs.loWord() && hiWord() == Rhs.hiWord();
    return std::memcmp(Heap, Rhs.Heap, Size) == 0;
  }

  /// Lexicographic order on one-line notation (for deterministic sorting).
  bool operator<(const Permutation &Rhs) const {
    unsigned Common = Size < Rhs.Size ? Size : Rhs.Size;
    int Cmp = std::memcmp(data(), Rhs.data(), Common);
    return Cmp != 0 ? Cmp < 0 : Size < Rhs.Size;
  }

  /// Raw access for algorithms that need the whole word at once.
  std::span<const uint8_t> oneLine() const { return {data(), Size}; }

  /// The one-line word as an owning vector (for callers that store words in
  /// containers; prefer oneLine() on hot paths).
  std::vector<uint8_t> oneLineVector() const {
    return {data(), data() + Size};
  }

  /// True when the word is stored inline (k <= 16) -- the allocation-free
  /// regime every rank-space kernel operates in.
  bool isInline() const { return Size <= InlineCapacity; }

  /// The low/high 64-bit halves of the zero-padded inline word, for
  /// word-at-a-time hashing and equality. Inline sizes only.
  uint64_t loWord() const {
    assert(isInline() && "word access requires inline storage");
    uint64_t W;
    std::memcpy(&W, Inline, 8);
    return W;
  }
  uint64_t hiWord() const {
    assert(isInline() && "word access requires inline storage");
    uint64_t W;
    std::memcpy(&W, Inline + 8, 8);
    return W;
  }

private:
  const uint8_t *data() const { return isInline() ? Inline : Heap; }
  uint8_t *data() { return isInline() ? Inline : Heap; }

  /// Makes this a permutation of \p K symbols with uninitialized entries
  /// (inline tail zeroed); returns the writable word.
  uint8_t *resizeUninit(unsigned K);

  void destroy() {
    if (!isInline())
      delete[] Heap;
  }
  void copyFrom(const Permutation &Rhs) {
    Size = Rhs.Size;
    if (Rhs.isInline())
      std::memcpy(Inline, Rhs.Inline, InlineCapacity);
    else {
      Heap = new uint8_t[Size];
      std::memcpy(Heap, Rhs.Heap, Size);
    }
  }
  void moveFrom(Permutation &Rhs) noexcept {
    Size = Rhs.Size;
    if (Rhs.isInline())
      std::memcpy(Inline, Rhs.Inline, InlineCapacity);
    else {
      Heap = Rhs.Heap;
      Rhs.Size = 0;
      std::memset(Rhs.Inline, 0, InlineCapacity);
    }
  }

  void composeIntoSlow(const Permutation &Rhs, Permutation &Out) const;

  /// Inline words are zero-padded past Size (invariant maintained by every
  /// mutator) so equality/hashing can compare whole 64-bit words; spilled
  /// words are exact-size heap blocks.
  union {
    alignas(8) uint8_t Inline[InlineCapacity] = {};
    uint8_t *Heap;
  };
  uint8_t Size = 0;
};

static_assert(sizeof(Permutation) <= 24, "labels must stay register-friendly");

/// Hash functor so permutations can key unordered containers: two 64-bit
/// loads mixed with a splitmix64-style finalizer for inline words, an FNV
/// byte loop for the (cold) spilled ones.
struct PermutationHash {
  size_t operator()(const Permutation &P) const {
    uint64_t H;
    if (P.isInline()) {
      H = P.loWord() * 0x9e3779b97f4a7c15ULL;
      H ^= P.hiWord() + 0xbf58476d1ce4e5b9ULL + (H << 6) + (H >> 2);
      H ^= uint64_t(P.size()) << 56;
    } else {
      H = 1469598103934665603ULL;
      for (uint8_t E : P.oneLine()) {
        H ^= E;
        H *= 1099511628211ULL;
      }
    }
    H ^= H >> 30;
    H *= 0xbf58476d1ce4e5b9ULL;
    H ^= H >> 27;
    H *= 0x94d049bb133111ebULL;
    H ^= H >> 31;
    return static_cast<size_t>(H);
  }
};

} // namespace scg

#endif // SCG_PERM_PERMUTATION_H
