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
Result<IdRunResult> RunSqlApproach(
    const Catalog& catalog, const std::vector<AttributeRef>& attributes,
    const std::vector<AttributePair>& candidates, RunContext& context,
    const std::function<Result<bool>(const Column& dep, const Column& ref,
                                     RunCounters* counters)>& test_one) {
  IdRunResult result;
  Stopwatch watch;
  watch.Start();
  context.Begin(static_cast<int64_t>(candidates.size()));

  for (const AttributePair& candidate : candidates) {
    if (context.ShouldStop()) {
      result.finished = false;
      break;
    }
    SPIDER_ASSIGN_OR_RETURN(
        const Column* dep,
        catalog.ResolveAttribute(attributes[candidate.dependent]));
    SPIDER_ASSIGN_OR_RETURN(
        const Column* ref,
        catalog.ResolveAttribute(attributes[candidate.referenced]));
    ++result.counters.candidates_tested;
    SPIDER_ASSIGN_OR_RETURN(bool satisfied,
                            test_one(*dep, *ref, &result.counters));
    if (satisfied) result.satisfied.push_back(candidate);
    context.Step();
  }

  result.seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace

Result<IdRunResult> SqlJoinAlgorithm::Run(
    const Catalog& catalog, const std::vector<AttributeRef>& attributes,
    const std::vector<AttributePair>& candidates, RunContext& context) {
  return RunSqlApproach(
      catalog, attributes, candidates, context,
      [](const Column& dep, const Column& ref,
         RunCounters* counters) -> Result<bool> {
        SPIDER_ASSIGN_OR_RETURN(
            const int64_t matched,
            engine::HashJoinMatchCount(dep, ref, counters));
        return matched == dep.non_null_count();
      });
}

Result<IdRunResult> SqlMinusAlgorithm::Run(
    const Catalog& catalog, const std::vector<AttributeRef>& attributes,
    const std::vector<AttributePair>& candidates, RunContext& context) {
  return RunSqlApproach(
      catalog, attributes, candidates, context,
      [](const Column& dep, const Column& ref,
         RunCounters* counters) -> Result<bool> {
        SPIDER_ASSIGN_OR_RETURN(const int64_t unmatched,
                                engine::MinusCount(dep, ref, counters));
        return unmatched == 0;
      });
}

Result<IdRunResult> SqlNotInAlgorithm::Run(
    const Catalog& catalog, const std::vector<AttributeRef>& attributes,
    const std::vector<AttributePair>& candidates, RunContext& context) {
  return RunSqlApproach(
      catalog, attributes, candidates, context,
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
