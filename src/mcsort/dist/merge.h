// K-way merge of sorted shard result streams — the coordinator's gather
// half. Shards ship per-element 128-bit composite sort keys
// (dist/merge_keys.h); this header merges K such pre-sorted runs with a
// tree of losers driven by offset-value codes (Do & Graefe, PAPERS.md):
// each key is read as eight 16-bit digits, and an element's code names the
// first digit where it differs from the element emitted before it and that
// digit's value.
//
// Invariant carried by the tree (the classic tree-of-losers argument):
// every stored loser's code is relative to the winner that defeated it,
// and after each emission every code on the replayed root path is relative
// to the element just emitted. Two consequences the coordinator relies on:
//
//   1. A challenge between different codes needs no key bytes — the
//      smaller code is the smaller key, and the loser's code stays valid
//      against the new reference (the winner agrees with the old reference
//      at least as deep as the loser differs from it).
//   2. The code attached to each emitted element is its offset-value code
//      relative to the *previously emitted* element — so `code == 0` is
//      exactly "same key as the previous output element", which is the
//      group-boundary signal the coordinator's aggregate stitching uses.
//      No extra comparisons are spent detecting seams.
//
// Equal codes force one full 128-bit comparison (counted); key ties break
// by run index, so the merge is deterministic.
#ifndef MCSORT_DIST_MERGE_H_
#define MCSORT_DIST_MERGE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mcsort {
namespace dist {

// A 128-bit composite sort key (merge_keys.h layout): unsigned (hi, lo)
// comparison is the multi-column comparison.
struct Key128 {
  uint64_t hi = 0;
  uint64_t lo = 0;
};
inline bool operator==(Key128 a, Key128 b) {
  return a.hi == b.hi && a.lo == b.lo;
}
inline bool operator!=(Key128 a, Key128 b) { return !(a == b); }
inline bool operator<(Key128 a, Key128 b) {
  return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
}
inline bool operator<=(Key128 a, Key128 b) { return !(b < a); }

// Offset-value code over Key128 in 16-bit digits (8 digits): the code of x
// relative to predecessor p (p <= x) is ((8 - o) << 16) | digit_o(x) with
// o the first differing digit from the MSB, 0 when x == p. Codes order
// ascending exactly like the keys they describe (same reference), and the
// largest code, (8 << 16) | 0xFFFF, fits a uint32.
using MergeCode = uint32_t;

inline MergeCode MergeCodeRelative(Key128 x, Key128 prev) {
  if (x.hi != prev.hi) {
    const int o = std::countl_zero(x.hi ^ prev.hi) / 16;
    const unsigned digit =
        static_cast<unsigned>((x.hi >> (48 - 16 * o)) & 0xFFFF);
    return (static_cast<MergeCode>(8 - o) << 16) | digit;
  }
  if (x.lo != prev.lo) {
    const int o = std::countl_zero(x.lo ^ prev.lo) / 16;
    const unsigned digit =
        static_cast<unsigned>((x.lo >> (48 - 16 * o)) & 0xFFFF);
    return (static_cast<MergeCode>(8 - (4 + o)) << 16) | digit;
  }
  return 0;
}

// Code of a run's first element: digit 0 against the virtual "minus
// infinity" reference all runs share at merge start.
inline MergeCode MergeCodeFirst(Key128 x) {
  return (MergeCode{8} << 16) |
         static_cast<unsigned>((x.hi >> 48) & 0xFFFF);
}

// One sorted input run: parallel hi/lo key arrays (borrowed; must outlive
// the tree). Runs may be empty.
struct MergeRun {
  const uint64_t* hi = nullptr;
  const uint64_t* lo = nullptr;
  size_t n = 0;
};

// One merged output element: which run, which position within it, and the
// element's offset-value code relative to the previously emitted element
// (code == 0 <=> equal keys <=> same group across a shard seam).
struct MergeElem {
  uint32_t run = 0;
  uint32_t index = 0;
  MergeCode code = 0;
};

// Comparison instrumentation: `full_compares` counts merge steps that had
// to touch the keys (equal codes); `emitted` counts merged elements, i.e.
// the comparisons a plain comparison-based merge would have performed. The
// difference is the comparisons offset-value coding skipped.
struct OvcCounters {
  uint64_t full_compares = 0;
  uint64_t emitted = 0;
};

class OvcLoserTree {
 public:
  explicit OvcLoserTree(std::vector<MergeRun> runs)
      : runs_(std::move(runs)) {
    const size_t k = runs_.size() > 0 ? runs_.size() : 1;
    cap_ = std::bit_ceil(k);
    tree_.assign(cap_, kNoRun);
    heads_.resize(runs_.size());
    for (size_t r = 0; r < runs_.size(); ++r) {
      heads_[r].pos = 0;
      if (runs_[r].n > 0) heads_[r].code = MergeCodeFirst(KeyAt(r));
    }
    winner_ = InitNode(1);
  }

  size_t remaining() const { return remaining_; }

  // Emits the next element in global key order; false when all runs are
  // exhausted.
  bool Next(MergeElem* out) {
    if (winner_ == kNoRun) return false;
    const int r = winner_;
    out->run = static_cast<uint32_t>(r);
    out->index = static_cast<uint32_t>(heads_[r].pos);
    out->code = heads_[r].code;
    ++counters_.emitted;
    --remaining_;

    // Advance the emitted run: the new head's in-run code (relative to its
    // predecessor) IS its code relative to the just-emitted element.
    const Key128 prev = KeyAt(r);
    ++heads_[r].pos;
    int cur = kNoRun;
    if (heads_[r].pos < runs_[r].n) {
      heads_[r].code = MergeCodeRelative(KeyAt(r), prev);
      cur = r;
    }
    // Replay the leaf-to-root path against the stored losers.
    for (size_t node = (cap_ + static_cast<size_t>(r)) >> 1; node >= 1;
         node >>= 1) {
      const int challenger = tree_[node];
      const int w = Challenge(cur, challenger);
      tree_[node] = (w == cur) ? challenger : cur;
      cur = w;
    }
    winner_ = cur;
    return true;
  }

  const OvcCounters& counters() const { return counters_; }

 private:
  static constexpr int kNoRun = -1;

  struct Head {
    size_t pos = 0;
    MergeCode code = 0;
  };

  Key128 KeyAt(int run) const {
    const size_t pos = heads_[run].pos;
    return {runs_[run].hi[pos], runs_[run].lo[pos]};
  }

  // Challenge between two run heads (either may be kNoRun = exhausted).
  // Returns the winner; on equal codes the loser is re-coded relative to
  // the winner's key (one counted full comparison).
  int Challenge(int a, int b) {
    if (a == kNoRun) return b;
    if (b == kNoRun) return a;
    const MergeCode ca = heads_[a].code;
    const MergeCode cb = heads_[b].code;
    if (ca != cb) return ca < cb ? a : b;
    ++counters_.full_compares;
    const Key128 xa = KeyAt(a);
    const Key128 xb = KeyAt(b);
    int winner, loser;
    if (xa < xb || (xa == xb && a < b)) {
      winner = a;
      loser = b;
    } else {
      winner = b;
      loser = a;
    }
    heads_[loser].code = MergeCodeRelative(loser == a ? xa : xb,
                                           winner == a ? xa : xb);
    return winner;
  }

  // Builds the initial tournament (all heads coded against the shared
  // virtual reference); returns the subtree winner, storing losers.
  int InitNode(size_t node) {
    if (node >= cap_) {
      const size_t r = node - cap_;
      if (r < runs_.size() && runs_[r].n > 0) {
        remaining_ += runs_[r].n;
        return static_cast<int>(r);
      }
      return kNoRun;
    }
    const int a = InitNode(2 * node);
    const int b = InitNode(2 * node + 1);
    const int w = Challenge(a, b);
    tree_[node] = (w == a) ? b : a;
    return w;
  }

  std::vector<MergeRun> runs_;
  std::vector<Head> heads_;
  std::vector<int> tree_;  // tree_[1..cap_-1]: loser at each internal node
  size_t cap_ = 1;
  size_t remaining_ = 0;
  int winner_ = kNoRun;
  OvcCounters counters_;
};

}  // namespace dist
}  // namespace mcsort

#endif  // MCSORT_DIST_MERGE_H_
