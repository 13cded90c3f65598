#include "src/ind/fd_levelwise.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "src/common/logging.h"
#include "src/ind/registry.h"
#include "src/ind/run_batch.h"

namespace spider {

namespace {

// One table's levelwise search. Serial within the table; the caller
// parallelizes across tables.
Result<BatchOutcome<Fd>> FindFdsInTable(const Catalog& catalog,
                                        const Table& table,
                                        const AlgorithmConfig& config,
                                        RunContext& context) {
  BatchOutcome<Fd> outcome;
  if (table.row_count() == 0) return outcome;
  std::vector<int> eligible;
  for (int c = 0; c < table.column_count(); ++c) {
    if (IsIndEligibleType(table.column(c).type())) eligible.push_back(c);
  }
  if (eligible.size() < 2) return outcome;

  // Distinct-tuple counts, one cached streaming extraction per column set
  // (ascending order — distinct counts are order-invariant, and the
  // canonical order maximizes extractor cache hits across candidates).
  std::map<std::vector<int>, int64_t> distinct_cache;
  auto distinct_of = [&](const std::vector<int>& combo) -> Result<int64_t> {
    auto it = distinct_cache.find(combo);
    if (it != distinct_cache.end()) return it->second;
    SortedSetInfo info;
    if (combo.size() == 1) {
      SPIDER_ASSIGN_OR_RETURN(
          info, config.extractor->Extract(
                    catalog, AttributeRef{table.name(),
                                          table.column(combo[0]).name()}));
    } else {
      std::vector<AttributeRef> attributes;
      attributes.reserve(combo.size());
      for (int c : combo) {
        attributes.push_back(
            AttributeRef{table.name(), table.column(c).name()});
      }
      SPIDER_ASSIGN_OR_RETURN(
          info, config.extractor->ExtractComposite(catalog, attributes));
    }
    distinct_cache.emplace(combo, info.distinct_count);
    return info.distinct_count;
  };

  for (int a : eligible) {
    // Level 1 candidates: every other eligible column as a singleton LHS.
    std::set<std::vector<int>> candidates;
    for (int c : eligible) {
      if (c != a) candidates.insert({c});
    }
    std::vector<std::vector<int>> satisfied_sets;
    for (int arity = 1;
         arity <= config.max_lhs_arity && !candidates.empty(); ++arity) {
      std::vector<std::vector<int>> unsatisfied;
      for (const std::vector<int>& lhs : candidates) {
        if (context.ShouldStop()) {
          outcome.finished = false;
          return outcome;
        }
        ++outcome.tests;
        ++outcome.counters.candidates_tested;
        SPIDER_ASSIGN_OR_RETURN(const int64_t lhs_distinct, distinct_of(lhs));
        std::vector<int> lhs_rhs = lhs;
        lhs_rhs.insert(
            std::lower_bound(lhs_rhs.begin(), lhs_rhs.end(), a), a);
        SPIDER_ASSIGN_OR_RETURN(const int64_t pair_distinct,
                                distinct_of(lhs_rhs));
        // g3-style over distinct tuples; the clamp covers NULLs in A
        // (dropped rows can make |π_XA| < |π_X|) per MATCH SIMPLE.
        const int64_t violations =
            std::max<int64_t>(0, pair_distinct - lhs_distinct);
        const double error =
            pair_distinct > 0
                ? static_cast<double>(violations) /
                      static_cast<double>(pair_distinct)
                : 0.0;
        context.Step();
        if (error <= config.error_threshold) {
          satisfied_sets.push_back(lhs);
          Fd fd;
          fd.table = table.name();
          for (int c : lhs) fd.lhs.push_back(table.column(c).name());
          fd.rhs = table.column(a).name();
          fd.error = error;
          outcome.found.push_back(std::move(fd));
        } else {
          unsatisfied.push_back(lhs);
        }
      }
      candidates.clear();
      if (arity == config.max_lhs_arity) break;
      // Next level: extend unsatisfied LHSs; a candidate containing a
      // satisfied subset can only yield a non-minimal FD, so it is pruned
      // (every minimal candidate survives — its max-column-removed prefix
      // is an unsatisfied base).
      for (const std::vector<int>& base : unsatisfied) {
        for (int c : eligible) {
          if (c <= base.back() || c == a) continue;
          std::vector<int> combo = base;
          combo.push_back(c);
          bool contains_satisfied = false;
          for (const std::vector<int>& satisfied : satisfied_sets) {
            if (std::includes(combo.begin(), combo.end(), satisfied.begin(),
                              satisfied.end())) {
              contains_satisfied = true;
              break;
            }
          }
          if (!contains_satisfied) candidates.insert(std::move(combo));
        }
      }
    }
  }
  return outcome;
}

}  // namespace

FdLevelwiseAlgorithm::FdLevelwiseAlgorithm(const AlgorithmConfig& config,
                                           std::string name)
    : config_(config), name_(std::move(name)) {
  SPIDER_CHECK(config_.extractor != nullptr)
      << name_ << " requires a value-set extractor";
  if (config_.max_lhs_arity < 1) config_.max_lhs_arity = 2;
  SPIDER_CHECK_GE(config_.error_threshold, 0);
  SPIDER_CHECK_LT(config_.error_threshold, 1.0);
}

Result<DependencyRunResult> FdLevelwiseAlgorithm::Run(const Catalog& catalog,
                                                      RunContext& context) {
  context.Begin(/*total_work=*/0);  // candidate count unknown up front
  // Per-table searches are independent; the batch folds them in table
  // order, so output and counters are identical at any thread count.
  auto search = [&](size_t t) {
    return FindFdsInTable(catalog, catalog.table(static_cast<int>(t)),
                          config_, context);
  };
  SPIDER_ASSIGN_OR_RETURN(
      BatchOutcome<Fd> batch,
      RunBatch<Fd>(config_.pool, static_cast<size_t>(catalog.table_count()),
                   context, search));
  DependencyRunResult result;
  result.fds = std::move(batch.found);
  std::sort(result.fds.begin(), result.fds.end());
  result.tests = batch.tests;
  result.counters = batch.counters;
  result.finished = batch.finished;
  result.seconds = context.elapsed_seconds();
  return result;
}

void RegisterFdLevelwiseAlgorithms(AlgorithmRegistry& registry) {
  AlgorithmCapabilities capabilities;
  capabilities.needs_extractor = true;
  capabilities.supports_time_budget = true;
  capabilities.parallel_safe = true;
  capabilities.supports_out_of_core = true;

  capabilities.kind = DependencyKind::kFd;
  capabilities.supports_partial = false;
  capabilities.summary =
      "levelwise minimal exact FDs via distinct-tuple counts over sorted "
      "composite sets";
  Status status = registry.Register(
      "fd-levelwise", capabilities, [](const AlgorithmConfig& config) {
        return std::make_unique<FdLevelwiseAlgorithm>(config, "fd-levelwise");
      });
  SPIDER_CHECK(status.ok()) << status.ToString();

  capabilities.kind = DependencyKind::kAfd;
  capabilities.supports_partial = true;  // honors error_threshold
  capabilities.summary =
      "approximate FDs: g3-style distinct-tuple error up to the configured "
      "threshold";
  status = registry.Register(
      "afd-levelwise", capabilities, [](const AlgorithmConfig& config) {
        return std::make_unique<FdLevelwiseAlgorithm>(config, "afd-levelwise");
      });
  SPIDER_CHECK(status.ok()) << status.ToString();
}

}  // namespace spider
