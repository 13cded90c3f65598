#include "src/ind/bell_brockhausen.h"

#include <optional>

#include "src/common/logging.h"
#include "src/engine/operators.h"
#include "src/ind/registry.h"
#include "src/ind/transitivity.h"
#include "src/storage/column_stats.h"

namespace spider {

Result<RunResult<AttributePair>> BellBrockhausenAlgorithm::Run(
    const Catalog& catalog, const std::vector<AttributeRef>& attributes,
    const std::vector<AttributePair>& candidates, RunContext& context) {
  RunResult<AttributePair> result;

  // Range statistics, computed on an attribute's first range pretest.
  std::vector<std::optional<ColumnStats>> stats(attributes.size());
  auto stats_for = [&](AttributeId attr) -> Result<const ColumnStats*> {
    std::optional<ColumnStats>& entry = stats[attr];
    if (!entry.has_value()) {
      SPIDER_ASSIGN_OR_RETURN(const Column* column,
                              catalog.ResolveAttribute(attributes[attr]));
      entry = ComputeColumnStats(*column);
    }
    return &*entry;
  };

  TransitivityPruner pruner;
  for (const AttributePair& candidate : candidates) {
    if (context.ShouldStop()) {
      result.finished = false;
      break;
    }
    const AttributeRef& dependent = attributes[candidate.dependent];
    const AttributeRef& referenced = attributes[candidate.referenced];

    // Transitivity: skip candidates whose outcome is already implied.
    if (options_.use_transitivity) {
      std::optional<bool> known = pruner.Known(dependent, referenced);
      if (known.has_value()) {
        ++result.counters.candidates_pretest_pruned;
        if (*known) result.satisfied.push_back(candidate);
        context.Step();
        continue;
      }
    }

    // Range pretests: min(dep) >= min(ref) and max(dep) <= max(ref).
    if (options_.min_max_pretest) {
      SPIDER_ASSIGN_OR_RETURN(const ColumnStats* dep_stats,
                              stats_for(candidate.dependent));
      SPIDER_ASSIGN_OR_RETURN(const ColumnStats* ref_stats,
                              stats_for(candidate.referenced));
      const bool out_of_range =
          (dep_stats->min_value && ref_stats->min_value &&
           *dep_stats->min_value < *ref_stats->min_value) ||
          (dep_stats->max_value && ref_stats->max_value &&
           *dep_stats->max_value > *ref_stats->max_value);
      if (out_of_range) {
        ++result.counters.candidates_pretest_pruned;
        if (options_.use_transitivity) {
          pruner.AddRefuted(dependent, referenced);
        }
        context.Step();
        continue;
      }
    }

    // The SQL join test (paper Fig. 2).
    SPIDER_ASSIGN_OR_RETURN(const Column* dep,
                            catalog.ResolveAttribute(dependent));
    SPIDER_ASSIGN_OR_RETURN(const Column* ref,
                            catalog.ResolveAttribute(referenced));
    ++result.counters.candidates_tested;
    SPIDER_ASSIGN_OR_RETURN(
        const int64_t matched,
        engine::HashJoinMatchCount(*dep, *ref, &result.counters));
    const bool satisfied = matched == dep->non_null_count();
    if (satisfied) {
      result.satisfied.push_back(candidate);
      if (options_.use_transitivity) pruner.AddSatisfied(dependent, referenced);
    } else if (options_.use_transitivity) {
      pruner.AddRefuted(dependent, referenced);
    }
    context.Step();
  }

  return result;
}

void RegisterBellBrockhausenAlgorithm(AlgorithmRegistry& registry) {
  AlgorithmCapabilities capabilities;
  capabilities.database_internal = true;
  capabilities.summary =
      "sequential SQL-join testing with range and transitivity pruning "
      "(Bell & Brockhausen [2])";
  Status status = registry.Register(
      "bell-brockhausen", capabilities, [](const AlgorithmConfig&) {
        return std::make_unique<BellBrockhausenAlgorithm>();
      });
  SPIDER_CHECK(status.ok()) << status.ToString();
}

}  // namespace spider
