#include "src/ind/ucc_levelwise.h"

#include <algorithm>
#include <set>
#include <unordered_set>
#include <utility>

#include "src/common/logging.h"
#include "src/common/stopwatch.h"
#include "src/ind/nary_algorithm.h"  // RunNaryBatch
#include "src/ind/registry.h"
#include "src/storage/composite_cursor.h"  // EncodeCompositeKey

namespace spider {

UniquenessTester MakeHashUniquenessTester(bool require_non_null,
                                          RunCounters* counters) {
  return [require_non_null, counters](
             const Table& table,
             const std::vector<int>& columns) -> Result<bool> {
    if (table.row_count() == 0) return false;  // vacuous keys are useless
    std::vector<std::unique_ptr<ValueCursor>> cursors;
    cursors.reserve(columns.size());
    for (int c : columns) {
      SPIDER_ASSIGN_OR_RETURN(std::unique_ptr<ValueCursor> cursor,
                              table.column(c).OpenCursor());
      cursors.push_back(std::move(cursor));
    }
    std::unordered_set<std::string> seen;
    seen.reserve(static_cast<size_t>(table.row_count()));
    std::vector<std::string> components(columns.size());
    int64_t usable_rows = 0;
    for (int64_t row = 0; row < table.row_count(); ++row) {
      if (counters != nullptr) ++counters->tuples_read;
      bool has_null = false;
      for (size_t i = 0; i < columns.size(); ++i) {
        // Every cursor advances every row (lockstep), even past NULL rows.
        std::string_view view;
        const CursorStep step = cursors[i]->Next(&view);
        if (step == CursorStep::kEnd) {
          SPIDER_RETURN_NOT_OK(cursors[i]->status());
          return Status::IOError("column ended before its table's row count");
        }
        if (step == CursorStep::kNull) {
          has_null = true;
          continue;
        }
        if (!has_null) components[i].assign(view.data(), view.size());
      }
      if (has_null) {
        if (require_non_null) return false;  // a key column may not be NULL
        continue;
      }
      ++usable_rows;
      if (!seen.insert(EncodeCompositeKey(components)).second) return false;
    }
    return usable_rows > 0;
  };
}

UniquenessTester MakeSortedSetUniquenessTester(const Catalog& catalog,
                                               ValueSetExtractor* extractor) {
  SPIDER_CHECK(extractor != nullptr);
  return [&catalog, extractor](
             const Table& table,
             const std::vector<int>& columns) -> Result<bool> {
    if (table.row_count() == 0) return false;
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
        attributes.push_back(AttributeRef{table.name(),
                                          table.column(c).name()});
      }
      SPIDER_ASSIGN_OR_RETURN(info,
                              extractor->ExtractComposite(catalog, attributes));
    }
    // NULL-containing rows are dropped by the extractor and duplicate rows
    // collapse, so only a NULL-free duplicate-free projection reaches the
    // full row count.
    return info.distinct_count == table.row_count();
  };
}

Result<std::vector<Ucc>> FindMinimalUccs(const Table& table, int max_arity,
                                         const UniquenessTester& tester,
                                         RunContext* context,
                                         RunCounters* counters,
                                         bool* finished) {
  SPIDER_CHECK_GE(max_arity, 1);
  if (finished != nullptr) *finished = true;
  std::vector<Ucc> result;
  const int n = table.column_count();
  if (n == 0 || table.row_count() == 0) return result;

  auto stop = [&]() {
    if (context == nullptr || !context->ShouldStop()) return false;
    if (finished != nullptr) *finished = false;
    return true;
  };
  auto test = [&](const std::vector<int>& combo) -> Result<bool> {
    if (counters != nullptr) ++counters->candidates_tested;
    SPIDER_ASSIGN_OR_RETURN(bool unique, tester(table, combo));
    if (context != nullptr) context->Step();
    return unique;
  };

  // Level 1.
  std::vector<std::vector<int>> non_unique;
  std::set<std::vector<int>> unique_sets;
  for (int c = 0; c < n; ++c) {
    if (!IsIndEligibleType(table.column(c).type())) continue;
    if (stop()) {
      std::sort(result.begin(), result.end());
      return result;
    }
    std::vector<int> combo{c};
    SPIDER_ASSIGN_OR_RETURN(bool unique, test(combo));
    if (unique) {
      unique_sets.insert(combo);
      result.push_back(Ucc{table.name(), {table.column(c).name()}});
    } else {
      non_unique.push_back(std::move(combo));
    }
  }

  // Levels 2..max: extend non-unique combinations (supersets of a UCC are
  // never minimal; supersets of a non-unique set may become unique).
  for (int arity = 2; arity <= max_arity && !non_unique.empty(); ++arity) {
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
      if (stop()) {
        std::sort(result.begin(), result.end());
        return result;
      }
      SPIDER_ASSIGN_OR_RETURN(bool unique, test(combo));
      if (unique) {
        unique_sets.insert(combo);
        Ucc ucc;
        ucc.table = table.name();
        for (int c : combo) ucc.columns.push_back(table.column(c).name());
        result.push_back(std::move(ucc));
      } else {
        next_non_unique.push_back(combo);
      }
    }
    non_unique = std::move(next_non_unique);
  }

  std::sort(result.begin(), result.end());
  return result;
}

UccLevelwiseAlgorithm::UccLevelwiseAlgorithm(UccLevelwiseOptions options)
    : options_(options) {
  SPIDER_CHECK(options_.extractor != nullptr)
      << "ucc-levelwise requires a value-set extractor";
  SPIDER_CHECK_GE(options_.max_arity, 1);
}

Result<DependencyRunResult> UccLevelwiseAlgorithm::Run(const Catalog& catalog,
                                                       RunContext& context) {
  Stopwatch watch;
  watch.Start();
  context.Begin(/*total_work=*/0);  // candidate count unknown up front
  DependencyRunResult result;

  struct TableOutcome {
    std::vector<Ucc> uccs;
    RunCounters counters;
    bool finished = true;
  };
  const UniquenessTester tester =
      MakeSortedSetUniquenessTester(catalog, options_.extractor);
  // Per-table searches are independent; batch results fold in table order,
  // so output and counters are identical at any thread count.
  auto outcomes = RunNaryBatch<TableOutcome>(
      options_.pool, static_cast<size_t>(catalog.table_count()),
      [&](size_t t) -> Result<TableOutcome> {
        TableOutcome outcome;
        SPIDER_ASSIGN_OR_RETURN(
            outcome.uccs,
            FindMinimalUccs(catalog.table(static_cast<int>(t)),
                            options_.max_arity, tester, &context,
                            &outcome.counters, &outcome.finished));
        return outcome;
      });
  for (Result<TableOutcome>& outcome : outcomes) {
    SPIDER_RETURN_NOT_OK(outcome.status());
    result.uccs.insert(result.uccs.end(),
                       std::make_move_iterator(outcome->uccs.begin()),
                       std::make_move_iterator(outcome->uccs.end()));
    result.counters.Merge(outcome->counters);
    result.finished = result.finished && outcome->finished;
  }
  std::sort(result.uccs.begin(), result.uccs.end());
  result.tests = result.counters.candidates_tested;
  result.seconds = watch.ElapsedSeconds();
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
      "ucc-levelwise", capabilities,
      [](const AlgorithmConfig& config)
          -> Result<std::unique_ptr<DependencyAlgorithm>> {
        UccLevelwiseOptions options;
        options.extractor = config.extractor;
        options.pool = config.pool;
        if (config.max_nary_arity >= 1) {
          options.max_arity = config.max_nary_arity;
        }
        return std::unique_ptr<DependencyAlgorithm>(
            std::make_unique<UccLevelwiseAlgorithm>(options));
      });
  SPIDER_CHECK(status.ok()) << status.ToString();
}

}  // namespace spider
