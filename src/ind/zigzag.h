// Zigzag-style n-ary IND discovery (De Marchi & Petit, ICDM 2003 — [11] in
// the paper's related work).
//
// Pure levelwise expansion (src/ind/nary.h) needs one pass per arity and
// suffers when large INDs exist: a k-ary IND forces testing all of its
// 2^k - 2 sub-INDs level by level. Zigzag alternates directions instead:
//
//   1. bottom-up: verify unary (given) and binary INDs levelwise;
//   2. optimistic jump: for every (dependent table, referenced table) pair,
//      build maximal candidate INDs compatible with the verified base (a
//      bipartite matching of unary INDs, filtered against known-unsatisfied
//      sub-INDs) and test them directly;
//   3. top-down refinement: a failed optimistic candidate whose error g3'
//      (fraction of distinct dependent tuples without a match) is at most
//      `epsilon` is likely "almost right" — its (k-1)-ary children are
//      tested next; a badly failed candidate is abandoned to the verified
//      bottom-up base instead of spawning children.
//
// The result is the set of MAXIMAL satisfied n-ary INDs (every
// subprojection of a reported IND is implied). This implementation makes
// one simplification relative to the published algorithm: optimistic
// candidates are derived from greedy bipartite matchings of the unary base
// rather than from minimal-hypergraph-transversal computation of the exact
// optimistic positive border; the zigzag section of docs/ALGORITHMS.md
// discusses the trade-off.
//
// Error measurement streams through CompositeSetVerifier — a full merge of
// the two sorted composite sets, the σ-partial-style coverage check lifted
// to tuples — so zigzag profiles out-of-core catalogs. Independent table
// pairs dispatch onto an optional ThreadPool through RunBatch.

#pragma once

#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/common/thread_pool.h"
#include "src/ind/composite_verify.h"
#include "src/ind/nary_algorithm.h"

namespace spider {

class AlgorithmRegistry;

/// Options for ZigzagAlgorithm.
struct ZigzagOptions {
  /// Maximum arity considered.
  int max_arity = 8;
  /// A failed optimistic candidate with error g3' <= epsilon refines
  /// top-down into its children; above the threshold it is abandoned.
  double epsilon = 0.3;
  /// Sorted composite sets are materialized and cached here. Borrowed;
  /// nullptr = a scoped temp-dir extractor owned by the verifier.
  ValueSetExtractor* extractor = nullptr;
  /// When set, independent table pairs are processed concurrently on this
  /// pool. Results and counters are identical to the serial run. Borrowed.
  ThreadPool* pool = nullptr;
  /// Zonemap block skipping on the verifier's referenced-side cursor
  /// (AlgorithmConfig::block_skip). Identical results either way.
  bool block_skip = true;
};

/// \brief Optimistic/top-down n-ary IND discovery, registered as "zigzag".
/// Reports the maximal satisfied INDs of arity >= 2 (none is a
/// subprojection of another reported IND); `tests` counts the direct data
/// tests, the figure to compare against pure levelwise expansion.
class ZigzagAlgorithm final : public NaryAlgorithm {
 public:
  explicit ZigzagAlgorithm(ZigzagOptions options = {});

  /// `unary` must be the complete satisfied unary IND set (as for the
  /// levelwise expansion).
  using NaryAlgorithm::Run;
  [[nodiscard]]
  Result<NaryRunResult> Run(const Catalog& catalog,
                            const std::vector<Ind>& unary,
                            RunContext& context) override;

  std::string_view name() const override { return "zigzag"; }

 private:
  ZigzagOptions options_;
  CompositeSetVerifier verifier_;
};

/// Registers the "zigzag" expansion with the registry.
void RegisterZigzagAlgorithm(AlgorithmRegistry& registry);

}  // namespace spider
