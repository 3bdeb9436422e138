// Code massage plans (Sec. 3).
//
// A plan partitions the W = sum(w_i) bits of the concatenated sort key into
// k rounds; round i sorts a_i bits with a b_i-bit-bank SIMD-sort. The
// paper's notation {R1: 18/[32], R2: 32/[32]} maps to
// rounds() = [{18, 32}, {32, 32}].
//
// The original column-at-a-time plan P0 has one round per input column with
// the column's minimal bank. Lemma 1 guarantees any re-partitioning of the
// bits produces the same sorted order of object identifiers.
#ifndef MCSORT_MASSAGE_PLAN_H_
#define MCSORT_MASSAGE_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace mcsort {

// Which single-column sort kernel executes a round. kSimdMerge is the
// paper's merge-sort with sorting-network kernel [5]; kRadix is the radix
// sort of the Sec. 7 extension (cost driven by the round *width* rather
// than the bank); kCounting is the CAFS-style O(N + K) frequency
// sort for rounds whose domain (and distinct count) is small relative to
// N. kOvcMerge is retired: its in-round kernel is gone and nothing
// produces it. It keeps its value and its "ovc" name only because the
// end-to-end benchmark's kernel census (bench/e2e) still lists it and
// reports it as 0; the executor rejects a round that carries it.
enum class SortKernel { kSimdMerge, kRadix, kOvcMerge, kCounting };

const char* SortKernelName(SortKernel kernel);

// Bitmask over SortKernel values — the plan search's kernel-choice
// dimension. kRoutableKernels are the kernels the cost model prices and
// ROGA routes between, round by round: merge, counting and radix.
using SortKernelMask = uint32_t;
constexpr SortKernelMask KernelBit(SortKernel kernel) {
  return SortKernelMask{1} << static_cast<int>(kernel);
}
constexpr SortKernelMask kRoutableKernels =
    KernelBit(SortKernel::kSimdMerge) | KernelBit(SortKernel::kCounting) |
    KernelBit(SortKernel::kRadix);

// Parses a comma-separated kernel list ("merge" or "simd", "counting",
// "radix"); unknown tokens are ignored, an empty/unparsable string returns
// `fallback`.
SortKernelMask ParseKernelMask(const std::string& text,
                               SortKernelMask fallback);

// The MCSORT_KERNELS debugging override (mirrors MCSORT_RHO): restricts
// the planner's kernel-choice dimension, and — when exactly one kernel is
// named — forces the executor's per-round dispatch to it.
SortKernelMask KernelMaskFromEnv(SortKernelMask fallback = kRoutableKernels);

// One round of sorting: `width` bits of the concatenated key sorted with a
// `bank`-bit-bank SIMD-sort. 1 <= width <= bank, bank in {16, 32, 64}.
// `kernel` is the round's sort kernel, stamped by ROGA or set by a caller
// (a pure execution annotation: Lemma 1 output equivalence holds for any
// kernel choice).
struct Round {
  int width = 0;
  int bank = 0;
  SortKernel kernel = SortKernel::kSimdMerge;

  friend bool operator==(const Round&, const Round&) = default;
};

class MassagePlan {
 public:
  MassagePlan() = default;
  explicit MassagePlan(std::vector<Round> rounds);

  // The column-at-a-time plan P0 for input columns of the given widths:
  // one round per column, minimal bank per width.
  static MassagePlan ColumnAtATime(const std::vector<int>& widths);

  // A plan with the given round widths and the minimal bank per round.
  static MassagePlan WithMinimalBanks(const std::vector<int>& widths);

  const std::vector<Round>& rounds() const { return rounds_; }
  size_t num_rounds() const { return rounds_.size(); }
  const Round& round(size_t i) const { return rounds_[i]; }
  // Mutable access for kernel annotation (the plan search stamps the
  // cost-chosen kernel onto each round of the winning plan).
  Round* mutable_round(size_t i) { return &rounds_[i]; }

  // W: total bits covered by the plan.
  int total_width() const;

  // Checks structural validity: nonempty, widths >= 1, width <= bank,
  // banks in {16, 32, 64}.
  bool IsValid() const;

  // Round widths only (the FIP computation's "output widths").
  std::vector<int> widths() const;

  // Paper notation, e.g. "{R1: 18/[32], R2: 32/[32]}".
  std::string ToString() const;

  friend bool operator==(const MassagePlan&, const MassagePlan&) = default;

 private:
  std::vector<Round> rounds_;
};

}  // namespace mcsort

#endif  // MCSORT_MASSAGE_PLAN_H_
