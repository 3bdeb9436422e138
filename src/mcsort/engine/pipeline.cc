#include "mcsort/engine/pipeline.h"

#include <utility>

namespace mcsort {
namespace {

// Emits the per-round instruction chain for `plan` after a Code-Massage.
std::vector<Instruction> PipelineForPlan(const MassagePlan& plan) {
  std::vector<Instruction> pipeline;
  Instruction massage;
  massage.op = OpCode::kCodeMassage;
  massage.plan = plan;
  pipeline.push_back(std::move(massage));
  for (size_t j = 0; j < plan.num_rounds(); ++j) {
    if (j > 0) {
      Instruction lookup;
      lookup.op = OpCode::kLookup;
      lookup.round = static_cast<int>(j);
      pipeline.push_back(lookup);
    }
    Instruction sort;
    sort.op = OpCode::kSimdSort;
    sort.round = static_cast<int>(j);
    sort.bank = plan.round(j).bank;
    sort.kernel = plan.round(j).kernel;
    pipeline.push_back(sort);
    Instruction scan;
    scan.op = OpCode::kScanGroups;
    scan.round = static_cast<int>(j);
    pipeline.push_back(scan);
  }
  return pipeline;
}

}  // namespace

std::vector<Instruction> ColumnAtATimePipeline(
    const std::vector<int>& widths) {
  return PipelineForPlan(MassagePlan::ColumnAtATime(widths));
}

std::vector<Instruction> RewriteFastMcs(const std::vector<Instruction>& input,
                                        const CostModel& model,
                                        const SortInstanceStats& stats,
                                        const SearchOptions& options) {
  // (a) Identify the multi-column sorting chain: a Code-Massage followed
  // by per-round SIMD-Sort instructions (this module only ever sees such
  // chains; a full engine would scan a longer program for them).
  if (input.empty() || input.front().op != OpCode::kCodeMassage) {
    return input;
  }
  size_t sort_rounds = 0;
  for (const Instruction& instruction : input) {
    if (instruction.op == OpCode::kSimdSort) ++sort_rounds;
  }
  if (sort_rounds < 2) return input;  // single-column sorting: leave intact

  // (b) Plan search.
  const SearchResult found = RogaSearch(model, stats, options);
  if (found.plan == input.front().plan) return input;

  // (c) Rewrite.
  return PipelineForPlan(found.plan);
}

std::string PipelineToString(const std::vector<Instruction>& pipeline) {
  std::string out;
  for (const Instruction& instruction : pipeline) {
    switch (instruction.op) {
      case OpCode::kCodeMassage:
        // Input columns are implicit (c0..cm-1); show the target plan.
        out += "s := Code-Massage(c0..., " + instruction.plan.ToString() +
               ")\n";
        break;
      case OpCode::kLookup:
        out += "s" + std::to_string(instruction.round) + " := Lookup(s" +
               std::to_string(instruction.round) + ", oid)\n";
        break;
      case OpCode::kSimdSort:
        out += "(oid, groups) := SIMD-Sort(s" +
               std::to_string(instruction.round) + ", " +
               std::to_string(instruction.bank) +
               // Non-default kernels are annotated, like MassagePlan's
               // ToString; plain merge rounds render unchanged.
               (instruction.kernel != SortKernel::kSimdMerge
                    ? std::string(":") + SortKernelName(instruction.kernel)
                    : std::string()) +
               ", " + (instruction.round == 0 ? "nil" : "groups") + ")\n";
        break;
      case OpCode::kScanGroups:
        out += "groups := Scan(s" + std::to_string(instruction.round) +
               ", groups)\n";
        break;
    }
  }
  return out;
}

}  // namespace mcsort
