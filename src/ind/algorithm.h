// Common interface of the IND test algorithms.

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/common/counters.h"
#include "src/common/result.h"
#include "src/ind/candidate.h"
#include "src/ind/run_batch.h"
#include "src/ind/run_context.h"
#include "src/storage/catalog.h"

namespace spider {

/// Unary verification over candidates by name: the satisfied INDs.
using IndRunResult = RunResult<Ind>;

/// \brief Interface implemented by all IND verification approaches: the
/// three SQL statements (join / minus / not in), the two database-
/// external algorithms (brute force / single pass), and the implemented
/// extensions (spider-merge, de-marchi, bell-brockhausen).
class IndAlgorithm {
 public:
  virtual ~IndAlgorithm() = default;

  /// Tests every candidate against the catalog's data and returns the
  /// satisfied ones, by id over `attributes`. `attributes[id]` names each
  /// id the candidates use; every named attribute must exist. The context
  /// carries the unified run controls — time budget, cancellation and
  /// progress — which every implementation honors: it polls ShouldStop()
  /// and steps once per candidate it decides.
  [[nodiscard]]
  virtual Result<RunResult<AttributePair>> Run(
      const Catalog& catalog, const std::vector<AttributeRef>& attributes,
      const std::vector<AttributePair>& candidates, RunContext& context) = 0;

  /// Adapter for candidates by name: interns their attributes into a local
  /// table, runs the id path, names the satisfied INDs and times the run
  /// on the context's clock. Derived classes re-expose it with
  /// `using IndAlgorithm::Run;`.
  [[nodiscard]]
  Result<IndRunResult> Run(const Catalog& catalog,
                           const std::vector<IndCandidate>& candidates,
                           RunContext& context);

  /// Convenience overload: unbounded run with no callbacks.
  [[nodiscard]]
  Result<IndRunResult> Run(const Catalog& catalog,
                           const std::vector<IndCandidate>& candidates) {
    RunContext context;
    return Run(catalog, candidates, context);
  }

  /// Short display name, e.g. "brute-force".
  virtual std::string_view name() const = 0;
};

}  // namespace spider
