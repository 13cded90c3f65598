// Common interface of the IND test algorithms.

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/common/counters.h"
#include "src/common/result.h"
#include "src/ind/candidate.h"
#include "src/ind/run_context.h"
#include "src/storage/catalog.h"

namespace spider {

/// Outcome of running an algorithm over a candidate set.
struct IndRunResult {
  /// Candidates verified as satisfied INDs.
  std::vector<Ind> satisfied;
  /// Work counters (tuples read, comparisons, ...).
  RunCounters counters;
  /// Wall-clock seconds spent inside Run().
  double seconds = 0;
  /// False when a time budget expired or the run was cancelled before all
  /// candidates were tested (mirrors the paper's "> 7 days" entries).
  /// `satisfied` is then partial: every listed IND is confirmed, the
  /// remaining candidates are undecided.
  bool finished = true;
};

/// IndRunResult on the id path: the satisfied candidates as id pairs over
/// the attribute table the run was given.
struct IdRunResult {
  std::vector<AttributePair> satisfied;
  RunCounters counters;
  double seconds = 0;
  bool finished = true;
};

/// \brief Interface implemented by all IND verification approaches: the
/// three SQL statements (join / minus / not in), the two database-
/// external algorithms (brute force / single pass), and the implemented
/// extensions (spider-merge, de-marchi, bell-brockhausen).
class IndAlgorithm {
 public:
  virtual ~IndAlgorithm() = default;

  /// Tests every candidate against the catalog's data and returns the
  /// satisfied ones, by id. `attributes[id]` names each id the candidates
  /// use; every named attribute must exist. The context carries the
  /// unified run controls — time budget, cancellation and progress — which
  /// every implementation honors.
  [[nodiscard]]
  virtual Result<IdRunResult> Run(const Catalog& catalog,
                                  const std::vector<AttributeRef>& attributes,
                                  const std::vector<AttributePair>& candidates,
                                  RunContext& context) = 0;

  /// Adapter for candidates by name: interns their attributes into a local
  /// table, runs the id path and names the satisfied INDs. Derived classes
  /// re-expose it with `using IndAlgorithm::Run;`.
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
