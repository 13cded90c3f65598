// The three in-database SQL approaches (paper Sec. 2).
//
// Each candidate is verified by one "SQL statement" executed by the mini
// relational engine in src/engine. The statements compute their complete
// results — the paper's central observation is that SQL cannot express the
// early stop, and that each statement re-scans and re-sorts base data
// because sorted sets cannot be reused across queries.
//
// The run context's wall-clock budget models the paper's aborted runs
// ("> 7 days"): when exceeded, Run() returns a partial result with
// finished = false.

#pragma once

#include "src/ind/algorithm.h"

namespace spider {

class AlgorithmRegistry;

/// \brief Statement "utilizing join" (paper Fig. 2): count join partners
/// and compare against the number of non-NULL dependent values, with the
/// engine's hash join as the physical plan.
class SqlJoinAlgorithm final : public IndAlgorithm {
 public:
  using IndAlgorithm::Run;
  [[nodiscard]]
  Result<IdRunResult> Run(const Catalog& catalog,
                          const std::vector<AttributeRef>& attributes,
                          const std::vector<AttributePair>& candidates,
                          RunContext& context) override;
  std::string_view name() const override { return "sql-join"; }
};

/// \brief Statement "utilizing minus" (paper Fig. 3): |dep MINUS ref| must
/// be zero. The engine always computes the full difference (the rownum hint
/// is not pushed down — Sec. 2.2).
class SqlMinusAlgorithm final : public IndAlgorithm {
 public:
  using IndAlgorithm::Run;
  [[nodiscard]]
  Result<IdRunResult> Run(const Catalog& catalog,
                          const std::vector<AttributeRef>& attributes,
                          const std::vector<AttributePair>& candidates,
                          RunContext& context) override;
  std::string_view name() const override { return "sql-minus"; }
};

/// \brief Statement "utilizing not in" (paper Fig. 4): no dependent value
/// may fall outside the referenced column. Executes as a nested-loop anti
/// join, the slowest plan in the paper's measurements.
class SqlNotInAlgorithm final : public IndAlgorithm {
 public:
  using IndAlgorithm::Run;
  [[nodiscard]]
  Result<IdRunResult> Run(const Catalog& catalog,
                          const std::vector<AttributeRef>& attributes,
                          const std::vector<AttributePair>& candidates,
                          RunContext& context) override;
  std::string_view name() const override { return "sql-not-in"; }
};

/// Registers "sql-join", "sql-minus" and "sql-not-in" (called once from
/// AlgorithmRegistry::Global()).
void RegisterSqlAlgorithms(AlgorithmRegistry& registry);

}  // namespace spider
