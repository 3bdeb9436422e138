// The 128-bit composite sort key and its K-way merge — one module for the
// coordinator's gather (in-memory shard runs) and the spill sort's merge
// (file-backed run cursors, sort/external/).
//
// The composite key is the paper's concatenated multi-column code (Sec. 3)
// capped at 128 bits: column codes most-significant-first in sort-attribute
// order, descending attributes complemented within their width, the whole
// left-aligned to bit 127. Unsigned (hi, lo) comparison is then exactly the
// multi-column comparison, and the encoding is injective over the
// attribute tuple. KeyEncoder assembles keys, KeyColumn decodes one column
// back out, and CheckKeyWidth is the one cap check.
//
// OvcLoserTree merges K pre-sorted runs of such keys with a tree of losers
// driven by offset-value codes (Do & Graefe, PAPERS.md): each key is read
// as eight 16-bit digits, and an element's code names the first digit where
// it differs from the element emitted before it and that digit's value.
//
// Invariant carried by the tree (the classic tree-of-losers argument):
// every stored loser's code is relative to the winner that defeated it,
// and after each emission every code on the replayed root path is relative
// to the element just emitted. Two consequences callers rely on:
//
//   1. A challenge between different codes needs no key bytes — the
//      smaller code is the smaller key, and the loser's code stays valid
//      against the new reference (the winner agrees with the old reference
//      at least as deep as the loser differs from it).
//   2. The code attached to each emitted element is its offset-value code
//      relative to the *previously emitted* element — so `code == 0` is
//      exactly "same key as the previous output element", which is the
//      group-boundary signal both callers use (the coordinator stitches
//      aggregates across it, the spill sort cuts groups at it). No extra
//      comparisons are spent detecting seams.
//
// Equal codes force one full 128-bit comparison (counted); key ties break
// by run index, so the merge is deterministic.
#ifndef MCSORT_DIST_MERGE_H_
#define MCSORT_DIST_MERGE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mcsort/common/bits.h"
#include "mcsort/common/status.h"
#include "mcsort/storage/column.h"
#include "mcsort/storage/types.h"

namespace mcsort {
namespace dist {

// A 128-bit composite sort key: unsigned (hi, lo) comparison is the
// multi-column comparison.
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

// ---------------------------------------------------------------------------
// The composite key
// ---------------------------------------------------------------------------

// kUnimplemented when a composite of `total_width` bits does not fit a
// Key128. Callers that report another code keep this detail.
inline Status CheckKeyWidth(int total_width) {
  if (total_width <= 128) return Status::Ok();
  return Status::Unimplemented("composite sort key is " +
                               std::to_string(total_width) +
                               " bits; merge keys cap at 128");
}

// Assembles the composite key of a row from its sort-attribute columns
// (borrowed; must outlive the encoder). Add the attributes (at least one)
// in sort order, then check width() with CheckKeyWidth before encoding.
class KeyEncoder {
 public:
  void Add(const EncodedColumn& column, SortOrder order) {
    attrs_.push_back({&column, order == SortOrder::kDescending});
    width_ += column.width();
  }

  int width() const { return width_; }

  Key128 Encode(Oid oid) const {
    unsigned __int128 key = 0;
    for (const Attr& a : attrs_) {
      const int w = a.column->width();
      Code code = a.column->Get(oid);
      if (a.descending) code = ComplementCode(code, w);
      key = (key << w) | code;
    }
    key <<= 128 - width_;
    return {static_cast<uint64_t>(key >> 64), static_cast<uint64_t>(key)};
  }

 private:
  struct Attr {
    const EncodedColumn* column;
    bool descending;
  };
  std::vector<Attr> attrs_;
  int width_ = 0;
};

// Attribute `j`'s code out of a key whose attributes have `widths`.
inline uint64_t KeyColumn(Key128 key, const std::vector<int>& widths,
                          size_t j) {
  int prefix = 0;
  for (size_t i = 0; i < j; ++i) prefix += widths[i];
  const unsigned __int128 k =
      (static_cast<unsigned __int128>(key.hi) << 64) | key.lo;
  return static_cast<uint64_t>(k >> (128 - prefix - widths[j])) &
         LowBitsMask(widths[j]);
}

// ---------------------------------------------------------------------------
// The merge
// ---------------------------------------------------------------------------

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

// One sorted in-memory run: parallel hi/lo key arrays (borrowed; must
// outlive the tree) and the position of the run's head. Runs may be empty.
//
// The run interface OvcLoserTree merges: has() while the run holds an
// element, key() of that element, Advance() to the next (false when the
// run is exhausted or failed), failed() when it stopped on an error.
// sort/external's RunCursor is the file-backed implementation.
struct MergeRun {
  const uint64_t* hi = nullptr;
  const uint64_t* lo = nullptr;
  size_t n = 0;
  size_t pos = 0;

  bool has() const { return pos < n; }
  Key128 key() const { return {hi[pos], lo[pos]}; }
  bool Advance() { return ++pos < n; }
  bool failed() const { return false; }
};

// One merged output element: which run holds it and its offset-value code
// relative to the previously emitted element (code == 0 <=> equal keys <=>
// same group). The run still sits on the element until the next Next(),
// so its payload is read from the run: `pos` of a MergeRun, the oid of a
// RunCursor.
struct MergeElem {
  uint32_t run = 0;
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

// Tree of losers over `Run`s (the interface above), dispatched statically:
// no virtual or indirect call per element. Runs are borrowed, must outlive
// the tree, and are advanced by it.
template <typename Run>
class OvcLoserTree {
 public:
  explicit OvcLoserTree(std::vector<Run*> runs) : runs_(std::move(runs)) {
    const size_t k = runs_.size() > 0 ? runs_.size() : 1;
    cap_ = std::bit_ceil(k);
    tree_.assign(cap_, kNoRun);
    codes_.assign(runs_.size(), 0);
    for (size_t r = 0; r < runs_.size(); ++r) {
      if (runs_[r]->has()) codes_[r] = MergeCodeFirst(runs_[r]->key());
    }
    winner_ = InitNode(1);
  }

  // Emits the next element in global key order. False when every run is
  // exhausted, or when advancing a run failed: the merge stops there and
  // failed_run() names the run.
  bool Next(MergeElem* out) {
    if (emitted_ != kNoRun && !Replay(emitted_)) return false;
    if (winner_ == kNoRun) return false;
    out->run = static_cast<uint32_t>(winner_);
    out->code = codes_[winner_];
    ++counters_.emitted;
    emitted_ = winner_;
    return true;
  }

  // The run whose failure stopped the merge, or -1.
  int failed_run() const { return failed_; }
  const OvcCounters& counters() const { return counters_; }

 private:
  static constexpr int kNoRun = -1;

  // Advances run `r` past the element last emitted from it and replays its
  // leaf-to-root path. The new head's in-run code (relative to its
  // predecessor) IS its code relative to the just-emitted element.
  bool Replay(int r) {
    emitted_ = kNoRun;
    Run& run = *runs_[r];
    const Key128 prev = run.key();
    int cur = kNoRun;
    if (run.Advance()) {
      codes_[r] = MergeCodeRelative(run.key(), prev);
      cur = r;
    } else if (run.failed()) {
      failed_ = r;
      winner_ = kNoRun;
      return false;
    }
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

  // Challenge between two run heads (either may be kNoRun = exhausted).
  // Returns the winner; on equal codes the loser is re-coded relative to
  // the winner's key (one counted full comparison).
  int Challenge(int a, int b) {
    if (a == kNoRun) return b;
    if (b == kNoRun) return a;
    if (codes_[a] != codes_[b]) return codes_[a] < codes_[b] ? a : b;
    ++counters_.full_compares;
    const Key128 xa = runs_[a]->key();
    const Key128 xb = runs_[b]->key();
    int winner, loser;
    if (xa < xb || (xa == xb && a < b)) {
      winner = a;
      loser = b;
    } else {
      winner = b;
      loser = a;
    }
    codes_[loser] =
        MergeCodeRelative(loser == a ? xa : xb, winner == a ? xa : xb);
    return winner;
  }

  // Builds the initial tournament (all heads coded against the shared
  // virtual reference); returns the subtree winner, storing losers.
  int InitNode(size_t node) {
    if (node >= cap_) {
      const size_t r = node - cap_;
      return (r < runs_.size() && runs_[r]->has()) ? static_cast<int>(r)
                                                   : kNoRun;
    }
    const int a = InitNode(2 * node);
    const int b = InitNode(2 * node + 1);
    const int w = Challenge(a, b);
    tree_[node] = (w == a) ? b : a;
    return w;
  }

  std::vector<Run*> runs_;
  std::vector<MergeCode> codes_;  // current head's code per run
  std::vector<int> tree_;  // tree_[1..cap_-1]: loser at each internal node
  size_t cap_ = 1;
  int winner_ = kNoRun;
  int emitted_ = kNoRun;  // run of the last emitted element, not advanced
  int failed_ = kNoRun;
  OvcCounters counters_;
};

}  // namespace dist
}  // namespace mcsort

#endif  // MCSORT_DIST_MERGE_H_
