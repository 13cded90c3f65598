// Levelwise minimal-UCC discovery, registered as "ucc-levelwise".
//
// Aladin's step 2 (paper Sec. 1.1) computes "candidates for primary keys
// ... using the uniqueness constraint for keys"; real schemas use
// composite keys (OpenMMS-style (entry_id, ordinal) pairs), which requires
// searching the lattice of column combinations. The search is levelwise
// with Apriori pruning:
//
//   * a combination with a NULL in any row can never be a key;
//   * any superset of a unique combination is unique but not minimal, so
//     satisfied nodes are not expanded;
//   * only combinations whose every (k-1)-subset is non-unique are
//     candidates at level k.
//
// A combination is unique iff its sorted-distinct composite set
// (ValueSetExtractor::ExtractComposite, NULL rows dropped per SQL MATCH
// SIMPLE) has exactly row_count entries. The test streams through the
// ExternalSorter, so the search profiles out-of-core catalogs in bounded
// memory; it honors RunContext budget/cancellation between candidates, and
// per-table searches dispatch onto an optional ThreadPool through RunBatch.

#pragma once

#include <string_view>

#include "src/common/result.h"
#include "src/ind/dependency.h"
#include "src/ind/registry.h"
#include "src/storage/catalog.h"

namespace spider {

/// \brief The registered UCC discoverer: sorted-set uniqueness tests,
/// per-table dispatch on an optional pool, unified run controls.
class UccLevelwiseAlgorithm : public DependencyAlgorithm {
 public:
  /// Reads from `config`: `extractor` (required), `max_nary_arity` (the
  /// highest combination size considered; values < 1 select 4) and `pool`
  /// (per-table searches run concurrently when set; results and counters
  /// are identical to the serial run).
  explicit UccLevelwiseAlgorithm(const AlgorithmConfig& config);

  using DependencyAlgorithm::Run;
  [[nodiscard]]
  Result<DependencyRunResult> Run(const Catalog& catalog,
                                  RunContext& context) override;

  std::string_view name() const override { return "ucc-levelwise"; }

 private:
  AlgorithmConfig config_;
};

/// Registers "ucc-levelwise" (called by AlgorithmRegistry::Global()).
void RegisterUccLevelwiseAlgorithm(AlgorithmRegistry& registry);

}  // namespace spider
