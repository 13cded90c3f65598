// Common interface of the n-ary (composite) IND expansion strategies.
//
// Unary verification (IndAlgorithm) answers "which candidate column pairs
// hold"; an n-ary expansion takes that satisfied unary set and derives
// higher-arity INDs from it — the paper's Sec. 6 argument that the
// efficient unary algorithms "will also be beneficial for finding
// multivalued INDs". Three strategies are registered: levelwise MIND-style
// expansion ("nary"), clique-based FIND2-style search ("clique-nary") and
// optimistic/top-down zigzag ("zigzag"). All of them validate candidates
// through CompositeSetVerifier's sorted-set merges, so all of them stream
// and can profile out-of-core catalogs, and all of them dispatch their
// independent work through RunBatch (src/ind/run_batch.h).

#pragma once

#include <string_view>
#include <utility>
#include <vector>

#include "src/common/counters.h"
#include "src/common/result.h"
#include "src/ind/candidate.h"
#include "src/ind/run_batch.h"
#include "src/ind/run_context.h"
#include "src/storage/catalog.h"

namespace spider {

/// Outcome of running an n-ary expansion over a unary IND base: satisfied
/// n-ary INDs of arity >= 2, sorted (the maximal INDs for clique and
/// zigzag, every satisfied IND of every level for levelwise expansion),
/// and the direct data validations performed (`tests`, the figure the
/// n-ary papers compare strategies on).
using NaryRunResult = RunResult<NaryInd>;

/// \brief Interface implemented by the n-ary expansion strategies.
class NaryAlgorithm {
 public:
  virtual ~NaryAlgorithm() = default;

  /// Expands the complete satisfied unary IND set `unary` into n-ary INDs.
  /// The context carries the unified run controls (time budget,
  /// cancellation, progress), which every implementation honors.
  [[nodiscard]]
  virtual Result<NaryRunResult> Run(const Catalog& catalog,
                                    const std::vector<Ind>& unary,
                                    RunContext& context) = 0;

  /// Convenience overload: unbounded run with no callbacks. Derived
  /// classes re-expose it with `using NaryAlgorithm::Run;`.
  [[nodiscard]]
  Result<NaryRunResult> Run(const Catalog& catalog,
                            const std::vector<Ind>& unary) {
    RunContext context;
    return Run(catalog, unary, context);
  }

  /// Short display name, e.g. "clique-nary".
  virtual std::string_view name() const = 0;
};

// Lattice helpers shared by the strategies. N-ary INDs are canonical
// NaryInds throughout (dependent attributes ascending).

/// Satisfied unary (dependent, referenced) attribute pairs.
using UnaryPairs = std::vector<std::pair<AttributeRef, AttributeRef>>;

/// The unary base grouped by (dependent table, referenced table), in table
/// pair order and input order within a pair. Pairs with fewer than two
/// INDs are dropped: they cannot combine into an n-ary IND.
std::vector<UnaryPairs> GroupByTablePair(const std::vector<Ind>& unary);

/// The canonical n-ary IND pairing `pairs`: dependent attributes
/// ascending, referenced attributes aligned.
NaryInd CanonicalNaryInd(UnaryPairs pairs);

/// The (k-1)-ary subprojections of a k-ary IND, one per dropped position.
std::vector<NaryInd> Children(const NaryInd& ind);

/// True when `candidate` is a subprojection of (or equal to) any IND in
/// `satisfied`, so it holds without a test.
bool IsImplied(const NaryInd& candidate, const std::vector<NaryInd>& satisfied);

/// The members of `satisfied` that are no subprojection of a larger member,
/// in input order.
std::vector<NaryInd> MaximalInds(const std::vector<NaryInd>& satisfied);

}  // namespace spider
