#include "mcsort/engine/pipeline.h"

#include <numeric>
#include <utility>

#include "mcsort/common/logging.h"
#include "mcsort/massage/massage.h"
#include "mcsort/scan/group_scan.h"
#include "mcsort/scan/lookup.h"

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

std::vector<Instruction> RewriteFastMcsWithPlan(
    const std::vector<Instruction>& input, const MassagePlan& plan) {
  if (input.empty() || input.front().op != OpCode::kCodeMassage) {
    return input;
  }
  size_t sort_rounds = 0;
  for (const Instruction& instruction : input) {
    if (instruction.op == OpCode::kSimdSort) ++sort_rounds;
  }
  if (sort_rounds < 2) return input;
  if (!plan.IsValid() ||
      plan.total_width() != input.front().plan.total_width() ||
      plan == input.front().plan) {
    return input;
  }
  return PipelineForPlan(plan);
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

MultiColumnSortResult ExecutePipeline(
    const std::vector<Instruction>& pipeline,
    const std::vector<MassageInput>& inputs, ThreadPool* pool,
    const ExecContext& ctx) {
  MCSORT_CHECK(!pipeline.empty());
  MCSORT_CHECK(pipeline.front().op == OpCode::kCodeMassage);
  MCSORT_CHECK(!inputs.empty());
  const size_t n = inputs[0].column->size();

  MultiColumnSortResult result;
  result.oids.resize(n);
  std::iota(result.oids.begin(), result.oids.end(), 0);
  if (n == 0) {
    result.groups.bounds = {0};
    return result;
  }

  std::vector<EncodedColumn> round_keys;
  EncodedColumn current;  // the looked-up round key the next sort consumes
  int current_round = -1;
  Segments segments = Segments::Whole(n);
  // One executor shared by all kSimdSort instructions: the interpreter
  // sorts segments through the same morsel-driven policy as the bulk path.
  MultiColumnSorter sorter(pool);

  const auto key_for = [&](int round) -> EncodedColumn* {
    if (current_round == round) return &current;
    return &round_keys[static_cast<size_t>(round)];
  };

  const bool stoppable = ctx.stoppable();
  for (const Instruction& instruction : pipeline) {
    // Instruction boundaries are this interpreter's round boundaries:
    // fault-injector polls and stop checks happen here, mirroring
    // MultiColumnSorter::Sort.
    if (stoppable) {
      result.status = ctx.CheckRound();
      if (!result.status.ok()) return result;
    }
    switch (instruction.op) {
      case OpCode::kCodeMassage:
        round_keys = ApplyMassage(inputs, instruction.plan, pool, &ctx);
        result.massage_seconds = 0;
        result.rounds.assign(instruction.plan.num_rounds(), RoundProfile{});
        break;
      case OpCode::kLookup: {
        EncodedColumn gathered;
        result.rounds[static_cast<size_t>(instruction.round)].lookup_morsels =
            GatherColumn(round_keys[static_cast<size_t>(instruction.round)],
                         result.oids.data(), n, &gathered, pool, &ctx);
        current = std::move(gathered);
        current_round = instruction.round;
        break;
      }
      case OpCode::kSimdSort: {
        sorter.SortSegments(
            instruction.bank, instruction.kernel, key_for(instruction.round),
            result.oids.data(), segments,
            &result.rounds[static_cast<size_t>(instruction.round)],
            stoppable ? &ctx : nullptr);
        break;
      }
      case OpCode::kScanGroups: {
        RoundProfile& profile =
            result.rounds[static_cast<size_t>(instruction.round)];
        Segments refined;
        profile.scan_chunks = FindGroups(*key_for(instruction.round), segments,
                                         &refined, pool, &ctx);
        segments = std::move(refined);
        profile.num_groups = segments.count();
        break;
      }
    }
  }
  if (stoppable && ctx.StopRequested()) {
    result.status = ctx.StopStatus();
    return result;
  }
  result.groups = std::move(segments);
  return result;
}

}  // namespace mcsort
