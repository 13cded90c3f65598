// Levelwise (approximate) functional dependency discovery over sorted
// composite value sets ("fd-levelwise" / "afd-levelwise").
//
// An FD X -> A holds when no two rows agree on X but differ on A —
// equivalently, when the projection onto X∪{A} has exactly as many
// distinct tuples as the projection onto X. That reduces FD validation to
// the machinery this codebase already streams everywhere: sorted-distinct
// (composite) value sets materialized once by the ValueSetExtractor
// through the ExternalSorter, so discovery works unchanged over
// out-of-core catalogs in bounded memory.
//
// The error measure mirrors the n-ary g3' machinery
// (CompositeSetVerifier), lifted to FDs over distinct tuples:
//
//   error(X -> A) = max(0, |π_XA| - |π_X|) / |π_XA|      (0 when empty)
//
// i.e. the fraction of distinct X∪{A} tuples in excess of what a function
// of X could produce. "fd-levelwise" keeps only error == 0; the AFD
// variant accepts error <= AlgorithmConfig::error_threshold. NULL
// handling follows the extractor's MATCH SIMPLE convention: rows with a
// NULL in the projected columns are dropped, so NULL-containing rows
// never count as violations (an all-NULL dependent column satisfies
// vacuously).
//
// The search is levelwise per dependent column A with TANE-style pruning:
// a satisfied LHS is minimal and is not extended, and no candidate may
// contain a satisfied subset.

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/common/counters.h"
#include "src/common/result.h"
#include "src/ind/dependency.h"
#include "src/ind/registry.h"
#include "src/storage/catalog.h"

namespace spider {

/// \brief Levelwise minimal (approximate) FD discovery. Registered twice:
/// "fd-levelwise" (exact, kind kFd) and "afd-levelwise" (kind kAfd,
/// honoring the error threshold).
class FdLevelwiseAlgorithm : public DependencyAlgorithm {
 public:
  /// Reads from `config`: `extractor` (required), `max_lhs_arity` (the
  /// highest determinant size considered; values < 1 select 2),
  /// `error_threshold` (accept X -> A when error <= threshold; 0 = exact
  /// FDs only) and `pool` (per-table searches run concurrently when set;
  /// results and counters are identical to the serial run).
  FdLevelwiseAlgorithm(const AlgorithmConfig& config, std::string name);

  using DependencyAlgorithm::Run;
  [[nodiscard]]
  Result<DependencyRunResult> Run(const Catalog& catalog,
                                  RunContext& context) override;

  std::string_view name() const override { return name_; }

 private:
  AlgorithmConfig config_;
  std::string name_;
};

/// Registers "fd-levelwise" and "afd-levelwise" (called by
/// AlgorithmRegistry::Global()).
void RegisterFdLevelwiseAlgorithms(AlgorithmRegistry& registry);

}  // namespace spider
