#include "src/ind/ucc_levelwise.h"

#include <algorithm>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/ind/registry.h"
#include "src/ind/run_batch.h"

namespace spider {

namespace {

// True when the projection of `table` onto `columns` (ascending indices) is
// a key. NULL-containing rows are dropped by the extractor and duplicate
// rows collapse, so only a NULL-free duplicate-free projection keeps all
// row_count tuples in its sorted-distinct set. One cached streaming
// extraction per combination.
Result<bool> IsUnique(const Catalog& catalog, ValueSetExtractor* extractor,
                      const Table& table, const std::vector<int>& columns) {
  SortedSetInfo info;
  if (columns.size() == 1) {
    // Reuses (and seeds) the unary cache shared with IND profiling.
    SPIDER_ASSIGN_OR_RETURN(
        info, extractor->Extract(
                  catalog, AttributeRef{table.name(),
                                        table.column(columns[0]).name()}));
  } else {
    std::vector<AttributeRef> attributes;
    attributes.reserve(columns.size());
    for (int c : columns) {
      attributes.push_back(AttributeRef{table.name(), table.column(c).name()});
    }
    SPIDER_ASSIGN_OR_RETURN(info,
                            extractor->ExtractComposite(catalog, attributes));
  }
  return info.distinct_count == table.row_count();
}

// One table's levelwise search, serial within the table (the caller
// parallelizes across tables). Polls `context` between candidates and
// steps its progress once per tested candidate.
Result<BatchOutcome<Ucc>> FindMinimalUccs(const Catalog& catalog,
                                          const Table& table,
                                          const AlgorithmConfig& config,
                                          RunContext& context) {
  BatchOutcome<Ucc> outcome;
  const int n = table.column_count();
  // An empty table's combinations are vacuously unique: useless as keys.
  if (n == 0 || table.row_count() == 0) return outcome;

  // Tests one combination, recording it when unique.
  auto test = [&](const std::vector<int>& combo) -> Result<bool> {
    ++outcome.tests;
    ++outcome.counters.candidates_tested;
    SPIDER_ASSIGN_OR_RETURN(
        const bool unique,
        IsUnique(catalog, config.extractor, table, combo));
    context.Step();
    if (unique) {
      Ucc ucc;
      ucc.table = table.name();
      for (int c : combo) ucc.columns.push_back(table.column(c).name());
      outcome.found.push_back(std::move(ucc));
    }
    return unique;
  };

  // Level 1.
  std::vector<std::vector<int>> non_unique;
  std::set<std::vector<int>> unique_sets;
  for (int c = 0; c < n; ++c) {
    if (!IsIndEligibleType(table.column(c).type())) continue;
    if (context.ShouldStop()) {
      outcome.finished = false;
      return outcome;
    }
    std::vector<int> combo{c};
    SPIDER_ASSIGN_OR_RETURN(const bool unique, test(combo));
    if (unique) {
      unique_sets.insert(std::move(combo));
    } else {
      non_unique.push_back(std::move(combo));
    }
  }

  // Levels 2..max: extend non-unique combinations (supersets of a UCC are
  // never minimal; supersets of a non-unique set may become unique).
  for (int arity = 2; arity <= config.max_nary_arity && !non_unique.empty();
       ++arity) {
    std::set<std::vector<int>> candidates;
    for (const std::vector<int>& base : non_unique) {
      for (int c = base.back() + 1; c < n; ++c) {
        if (!IsIndEligibleType(table.column(c).type())) continue;
        std::vector<int> combo = base;
        combo.push_back(c);
        // Minimality pre-check: no subset may be a known UCC. (All proper
        // subsets of size k-1 must be non-unique; it suffices to check the
        // known unique sets since every unique set is recorded.)
        bool contains_ucc = false;
        for (const std::vector<int>& ucc : unique_sets) {
          if (std::includes(combo.begin(), combo.end(), ucc.begin(),
                            ucc.end())) {
            contains_ucc = true;
            break;
          }
        }
        if (!contains_ucc) candidates.insert(std::move(combo));
      }
    }
    std::vector<std::vector<int>> next_non_unique;
    for (const std::vector<int>& combo : candidates) {
      if (context.ShouldStop()) {
        outcome.finished = false;
        return outcome;
      }
      SPIDER_ASSIGN_OR_RETURN(const bool unique, test(combo));
      if (unique) {
        unique_sets.insert(combo);
      } else {
        next_non_unique.push_back(combo);
      }
    }
    non_unique = std::move(next_non_unique);
  }
  return outcome;
}

}  // namespace

UccLevelwiseAlgorithm::UccLevelwiseAlgorithm(const AlgorithmConfig& config)
    : config_(config) {
  SPIDER_CHECK(config_.extractor != nullptr)
      << "ucc-levelwise requires a value-set extractor";
  if (config_.max_nary_arity < 1) config_.max_nary_arity = 4;
}

Result<DependencyRunResult> UccLevelwiseAlgorithm::Run(const Catalog& catalog,
                                                       RunContext& context) {
  context.Begin(/*total_work=*/0);  // candidate count unknown up front
  // Per-table searches are independent; the batch folds them in table
  // order, so output and counters are identical at any thread count.
  auto search = [&](size_t t) {
    return FindMinimalUccs(catalog, catalog.table(static_cast<int>(t)),
                           config_, context);
  };
  SPIDER_ASSIGN_OR_RETURN(
      BatchOutcome<Ucc> batch,
      RunBatch<Ucc>(config_.pool, static_cast<size_t>(catalog.table_count()),
                    context, search));
  DependencyRunResult result;
  result.uccs = std::move(batch.found);
  std::sort(result.uccs.begin(), result.uccs.end());
  result.tests = batch.tests;
  result.counters = batch.counters;
  result.finished = batch.finished;
  result.seconds = context.elapsed_seconds();
  return result;
}

void RegisterUccLevelwiseAlgorithm(AlgorithmRegistry& registry) {
  AlgorithmCapabilities capabilities;
  capabilities.kind = DependencyKind::kUcc;
  capabilities.needs_extractor = true;
  capabilities.supports_partial = false;
  capabilities.supports_time_budget = true;
  capabilities.parallel_safe = true;
  capabilities.supports_out_of_core = true;
  capabilities.summary =
      "levelwise minimal unique column combinations (composite key "
      "candidates) over sorted composite sets";
  const Status status = registry.Register(
      "ucc-levelwise", capabilities, [](const AlgorithmConfig& config) {
        return std::make_unique<UccLevelwiseAlgorithm>(config);
      });
  SPIDER_CHECK(status.ok()) << status.ToString();
}

}  // namespace spider
