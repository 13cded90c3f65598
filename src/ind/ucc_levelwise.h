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
#include "src/common/thread_pool.h"
#include "src/extsort/value_set_extractor.h"
#include "src/ind/dependency.h"
#include "src/storage/catalog.h"

namespace spider {

class AlgorithmRegistry;

/// Options for the registered "ucc-levelwise" algorithm.
struct UccLevelwiseOptions {
  /// Highest combination size considered.
  int max_arity = 4;
  /// Sorted-set materializer (required). Borrowed, thread-safe.
  ValueSetExtractor* extractor = nullptr;
  /// When set, per-table searches run concurrently on this pool; results
  /// and counters are identical to the serial run. Borrowed.
  ThreadPool* pool = nullptr;
};

/// \brief The registered UCC discoverer: sorted-set uniqueness tests,
/// per-table dispatch on an optional pool, unified run controls.
class UccLevelwiseAlgorithm : public DependencyAlgorithm {
 public:
  explicit UccLevelwiseAlgorithm(UccLevelwiseOptions options);

  using DependencyAlgorithm::Run;
  [[nodiscard]]
  Result<DependencyRunResult> Run(const Catalog& catalog,
                                  RunContext& context) override;

  std::string_view name() const override { return "ucc-levelwise"; }

 private:
  UccLevelwiseOptions options_;
};

/// Registers "ucc-levelwise" (called by AlgorithmRegistry::Global()).
void RegisterUccLevelwiseAlgorithm(AlgorithmRegistry& registry);

}  // namespace spider
