#include "src/ind/bell_brockhausen.h"

#include <map>

#include "src/common/logging.h"
#include "src/common/stopwatch.h"
#include "src/engine/operators.h"
#include "src/ind/registry.h"
#include "src/ind/transitivity.h"
#include "src/storage/column_stats.h"

namespace spider {

Result<IndRunResult> BellBrockhausenAlgorithm::Run(
    const Catalog& catalog, const std::vector<IndCandidate>& candidates,
    RunContext& context) {
  IndRunResult result;
  Stopwatch watch;
  watch.Start();
  context.Begin(static_cast<int64_t>(candidates.size()));

  std::map<AttributeRef, ColumnStats> stats;
  auto stats_for = [&](const AttributeRef& attr) -> Result<const ColumnStats*> {
    auto it = stats.find(attr);
    if (it == stats.end()) {
      SPIDER_ASSIGN_OR_RETURN(const Column* column,
                              catalog.ResolveAttribute(attr));
      it = stats.emplace(attr, ComputeColumnStats(*column)).first;
    }
    return &it->second;
  };

  TransitivityPruner pruner;
  for (const IndCandidate& candidate : candidates) {
    if (context.ShouldStop()) {
      result.finished = false;
      break;
    }

    // Transitivity: skip candidates whose outcome is already implied.
    if (options_.use_transitivity) {
      std::optional<bool> known =
          pruner.Known(candidate.dependent, candidate.referenced);
      if (known.has_value()) {
        ++result.counters.candidates_pretest_pruned;
        if (*known) {
          result.satisfied.push_back(
              Ind{candidate.dependent, candidate.referenced});
        }
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
          pruner.AddRefuted(candidate.dependent, candidate.referenced);
        }
        context.Step();
        continue;
      }
    }

    // The SQL join test (paper Fig. 2).
    SPIDER_ASSIGN_OR_RETURN(const Column* dep,
                            catalog.ResolveAttribute(candidate.dependent));
    SPIDER_ASSIGN_OR_RETURN(const Column* ref,
                            catalog.ResolveAttribute(candidate.referenced));
    ++result.counters.candidates_tested;
    SPIDER_ASSIGN_OR_RETURN(
        const int64_t matched,
        engine::HashJoinMatchCount(*dep, *ref, &result.counters));
    const bool satisfied = matched == dep->non_null_count();
    if (satisfied) {
      result.satisfied.push_back(
          Ind{candidate.dependent, candidate.referenced});
      if (options_.use_transitivity) {
        pruner.AddSatisfied(candidate.dependent, candidate.referenced);
      }
    } else if (options_.use_transitivity) {
      pruner.AddRefuted(candidate.dependent, candidate.referenced);
    }
    context.Step();
  }

  result.seconds = watch.ElapsedSeconds();
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
