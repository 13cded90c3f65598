#include "src/ind/sql_algorithms.h"

#include <functional>

#include "src/common/logging.h"
#include "src/common/stopwatch.h"
#include "src/engine/operators.h"
#include "src/ind/registry.h"

namespace spider {

namespace {

// Shared driver: runs `test_one` per candidate under the run context's
// budget.
Result<IndRunResult> RunSqlApproach(
    const Catalog& catalog, const std::vector<IndCandidate>& candidates,
    RunContext& context,
    const std::function<Result<bool>(const Column& dep, const Column& ref,
                                     RunCounters* counters)>& test_one) {
  IndRunResult result;
  Stopwatch watch;
  watch.Start();
  context.Begin(static_cast<int64_t>(candidates.size()));

  for (const IndCandidate& candidate : candidates) {
    if (context.ShouldStop()) {
      result.finished = false;
      break;
    }
    SPIDER_ASSIGN_OR_RETURN(const Column* dep,
                            catalog.ResolveAttribute(candidate.dependent));
    SPIDER_ASSIGN_OR_RETURN(const Column* ref,
                            catalog.ResolveAttribute(candidate.referenced));
    ++result.counters.candidates_tested;
    SPIDER_ASSIGN_OR_RETURN(bool satisfied,
                            test_one(*dep, *ref, &result.counters));
    if (satisfied) {
      result.satisfied.push_back(Ind{candidate.dependent, candidate.referenced});
    }
    context.Step();
  }

  result.seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace

Result<IndRunResult> SqlJoinAlgorithm::Run(
    const Catalog& catalog, const std::vector<IndCandidate>& candidates,
    RunContext& context) {
  return RunSqlApproach(
      catalog, candidates, context,
      [](const Column& dep, const Column& ref,
         RunCounters* counters) -> Result<bool> {
        SPIDER_ASSIGN_OR_RETURN(
            const int64_t matched,
            engine::HashJoinMatchCount(dep, ref, counters));
        return matched == dep.non_null_count();
      });
}

Result<IndRunResult> SqlMinusAlgorithm::Run(
    const Catalog& catalog, const std::vector<IndCandidate>& candidates,
    RunContext& context) {
  return RunSqlApproach(
      catalog, candidates, context,
      [](const Column& dep, const Column& ref,
         RunCounters* counters) -> Result<bool> {
        SPIDER_ASSIGN_OR_RETURN(const int64_t unmatched,
                                engine::MinusCount(dep, ref, counters));
        return unmatched == 0;
      });
}

Result<IndRunResult> SqlNotInAlgorithm::Run(
    const Catalog& catalog, const std::vector<IndCandidate>& candidates,
    RunContext& context) {
  return RunSqlApproach(
      catalog, candidates, context,
      [](const Column& dep, const Column& ref,
         RunCounters* counters) -> Result<bool> {
        SPIDER_ASSIGN_OR_RETURN(const int64_t unmatched,
                                engine::NotInCount(dep, ref, counters));
        return unmatched == 0;
      });
}

void RegisterSqlAlgorithms(AlgorithmRegistry& registry) {
  AlgorithmCapabilities capabilities;
  capabilities.database_internal = true;
  capabilities.parallel_safe = true;  // engine operators only read the catalog
  capabilities.supports_out_of_core = true;  // ColumnScan streams via cursors
  const struct {
    const char* name;
    std::string_view summary;
    AlgorithmRegistry::Factory factory;
  } kSqlApproaches[] = {
      {"sql-join", "per-candidate SQL join statement (paper Fig. 2)",
       [](const AlgorithmConfig&) {
         return std::make_unique<SqlJoinAlgorithm>();
       }},
      {"sql-minus", "per-candidate SQL minus statement (paper Fig. 3)",
       [](const AlgorithmConfig&) {
         return std::make_unique<SqlMinusAlgorithm>();
       }},
      {"sql-not-in", "per-candidate SQL not-in statement (paper Fig. 4)",
       [](const AlgorithmConfig&) {
         return std::make_unique<SqlNotInAlgorithm>();
       }},
  };
  for (const auto& approach : kSqlApproaches) {
    capabilities.summary = approach.summary;
    Status status =
        registry.Register(approach.name, capabilities, approach.factory);
    SPIDER_CHECK(status.ok()) << status.ToString();
  }
}

}  // namespace spider
