// The dependency-kind-generic side of the algorithm platform.
//
// The paper frames IND detection as one step of the Aladin profiling
// pipeline, with uniqueness/key discovery as a sibling step over the same
// sorted data (Sec. 1.1). This header generalizes the registry's vocabulary
// from "IND algorithm" to "dependency algorithm": a DependencyKind tags
// every registered approach, result structs exist for unique column
// combinations (UCC) and (approximate) functional dependencies (FD/AFD),
// and DependencyAlgorithm is the interface the non-IND discoverers
// implement. IND verification keeps its dedicated IndAlgorithm /
// NaryAlgorithm interfaces (candidates are cross-table pairs, a shape the
// other kinds don't have); the session dispatches on the kind.

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/common/counters.h"
#include "src/common/result.h"
#include "src/ind/run_batch.h"
#include "src/ind/run_context.h"
#include "src/storage/catalog.h"

namespace spider {

/// The class of dependency a registered approach discovers.
enum class DependencyKind {
  /// Inclusion dependencies (unary or n-ary) — the paper's subject.
  kInd,
  /// Minimal unique column combinations (composite key candidates).
  kUcc,
  /// Exact functional dependencies X -> A.
  kFd,
  /// Approximate functional dependencies: X -> A up to an error threshold
  /// (g3-style, over distinct tuples).
  kAfd,
};

/// Stable lowercase name, e.g. "ind", "ucc", "fd", "afd".
std::string_view KindName(DependencyKind kind);

/// Parses a kind name; unknown names fail with InvalidArgument listing the
/// valid names.
[[nodiscard]]
Result<DependencyKind> ParseDependencyKind(std::string_view name);

/// One minimal unique column combination.
struct Ucc {
  std::string table;
  /// Column names, ascending.
  std::vector<std::string> columns;

  int arity() const { return static_cast<int>(columns.size()); }
  std::string ToString() const;

  friend bool operator==(const Ucc& a, const Ucc& b) {
    return a.table == b.table && a.columns == b.columns;
  }
  friend bool operator<(const Ucc& a, const Ucc& b) {
    if (a.table != b.table) return a.table < b.table;
    return a.columns < b.columns;
  }
};

/// One (approximate) functional dependency lhs -> rhs within a table.
struct Fd {
  std::string table;
  /// Determinant column names, ascending.
  std::vector<std::string> lhs;
  /// Dependent column name.
  std::string rhs;
  /// Measured g3-style error: the fraction of distinct lhs∪{rhs} tuples in
  /// excess of the distinct lhs tuples (0 for an exact FD). Not part of
  /// the identity: comparisons ignore it.
  double error = 0;

  int lhs_arity() const { return static_cast<int>(lhs.size()); }
  std::string ToString() const;

  friend bool operator==(const Fd& a, const Fd& b) {
    return a.table == b.table && a.lhs == b.lhs && a.rhs == b.rhs;
  }
  friend bool operator<(const Fd& a, const Fd& b) {
    if (a.table != b.table) return a.table < b.table;
    if (a.rhs != b.rhs) return a.rhs < b.rhs;
    return a.lhs < b.lhs;
  }
};

/// Outcome of one dependency-discovery run: a UCC or FD search's fold as
/// the result of its kind. Only the section matching the algorithm's kind
/// is populated (uccs for kUcc, fds for kFd/kAfd).
struct DependencyRunResult : RunTotals {
  /// Minimal UCCs, sorted.
  std::vector<Ucc> uccs;
  /// Minimal (approximate) FDs, sorted; `error` carries the measured
  /// error, 0 for exact results.
  std::vector<Fd> fds;
};

/// \brief Interface implemented by the non-IND dependency discoverers
/// (UCC, FD, AFD). Unlike IndAlgorithm there is no external candidate
/// set: each algorithm enumerates its own lattice per table.
class DependencyAlgorithm {
 public:
  virtual ~DependencyAlgorithm() = default;

  /// Discovers the algorithm's dependency kind across the catalog. The
  /// context carries the unified run controls — time budget, cancellation
  /// and progress — which every implementation honors.
  [[nodiscard]]
  virtual Result<DependencyRunResult> Run(const Catalog& catalog,
                                          RunContext& context) = 0;

  /// Convenience overload: unbounded run with no callbacks.
  [[nodiscard]]
  Result<DependencyRunResult> Run(const Catalog& catalog) {
    RunContext context;
    return Run(catalog, context);
  }

  /// Short display name, e.g. "ucc-levelwise".
  virtual std::string_view name() const = 0;
};

class ValueSetExtractor;

/// The number of distinct tuples of `table` projected onto `columns`
/// (ascending indices), read off the sorted set `extractor` materializes:
/// the unary set for one column (the cache IND profiling shares), the
/// composite set otherwise. NULL-containing rows are dropped and duplicate
/// rows collapse. The UCC and FD searches decide on this count. The set
/// counts into `counters` if this call sorted or reused it.
[[nodiscard]]
Result<int64_t> DistinctTupleCount(const Catalog& catalog,
                                   ValueSetExtractor* extractor,
                                   const Table& table,
                                   const std::vector<int>& columns,
                                   RunCounters* counters);

}  // namespace spider
