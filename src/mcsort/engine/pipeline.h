// Physical-operator pipelines and the Fast-MCS rewrite — the paper's
// Appendix B reference integration, engine-agnostic.
//
// In MonetDB, a physical plan is a list of MAL instructions; the paper's
// Fast-MCS optimizer module (a) finds the instruction subsequences that
// perform column-at-a-time multi-column sorting (SIMD-Sort / Lookup
// chains), (b) runs the plan search, and (c) rewrites them into
// Code-Massage + fewer SIMD-Sort calls. This module reproduces that
// mechanism on an explicit instruction list:
//
//   column-at-a-time:                       rewritten:
//     (oid, g) := SIMD-Sort(a, 16, nil)       s := Code-Massage(a, b, plan)
//     b' := Lookup(b, oid)                    (oid, g) := SIMD-Sort(s[0], 32, nil)
//     (oid, g) := SIMD-Sort(b', 16, g)
//
// The module rewrites and renders; it does not execute. Every pipeline it
// emits is the instruction chain of its leading Code-Massage plan, so
// MultiColumnSorter::Sort(inputs, pipeline[0].plan) runs it: the sorter is
// the one executor of massage plans.
#ifndef MCSORT_ENGINE_PIPELINE_H_
#define MCSORT_ENGINE_PIPELINE_H_

#include <string>
#include <vector>

#include "mcsort/cost/cost_model.h"
#include "mcsort/massage/plan.h"
#include "mcsort/plan/roga.h"

namespace mcsort {

enum class OpCode {
  kCodeMassage,  // materialize round key columns from input columns
  kSimdSort,     // sort the current round key per group, permuting oids
  kLookup,       // reorder the next round key by the current oid order
  kScanGroups,   // refine group boundaries from the sorted round key
};

// One instruction. Column references are indices: inputs into the
// pipeline's input vector, round keys into the massage output.
struct Instruction {
  OpCode op = OpCode::kSimdSort;
  int round = 0;      // which round key the instruction touches
  int bank = 0;       // kSimdSort: SIMD bank
  // kSimdSort: cost-chosen round kernel (plan annotation carried through
  // the rewrite and shown by PipelineToString).
  SortKernel kernel = SortKernel::kSimdMerge;
  MassagePlan plan;   // kCodeMassage: the massage plan (identity for P0)
};

// The column-at-a-time pipeline for the given input widths (Fig. 2a): an
// identity Code-Massage (the paper's storage already holds the columns;
// the identity massage models the per-round key materialization), then
// per column: [Lookup] -> SIMD-Sort -> ScanGroups.
std::vector<Instruction> ColumnAtATimePipeline(const std::vector<int>& widths);

// The Fast-MCS rewrite (Appendix B): detects the multi-column sorting
// instruction chain, invokes ROGA over `model`/`stats`, and emits the
// massaged pipeline. Returns the input pipeline unchanged if no rewrite
// applies or the chosen plan is the original one.
std::vector<Instruction> RewriteFastMcs(const std::vector<Instruction>& input,
                                        const CostModel& model,
                                        const SortInstanceStats& stats,
                                        const SearchOptions& options = {});

// MAL-like rendering, e.g.
//   s := Code-Massage(c0, c1, {R1: 27/[32]})
//   (oid, groups) := SIMD-Sort(s0, 32, nil)
std::string PipelineToString(const std::vector<Instruction>& pipeline);

}  // namespace mcsort

#endif  // MCSORT_ENGINE_PIPELINE_H_
