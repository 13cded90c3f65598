// Clique-based n-ary IND discovery (Koeller & Rundensteiner, ICDE 2003 —
// [8] in the paper's related work: "identify multivalued IND candidates by
// finding cliques in k-uniform hypergraphs created of lowervalued
// satisfied INDs").
//
// For one (dependent table, referenced table) pair, build the graph whose
// nodes are the satisfied unary INDs and whose edges are the satisfied
// BINARY combinations. Any satisfied k-ary IND projects onto a k-clique of
// this graph, so the maximal cliques (enumerated with Bron–Kerbosch) are
// the only candidates for maximal INDs. Each clique candidate is validated
// against the data; a clique whose edges all hold can still fail at higher
// arity — the case the original paper handles by lifting to k-uniform
// hypergraphs — and is then refined exactly by testing its (k-1)-node
// sub-cliques top-down until satisfied nodes are reached.
//
// Like Zigzag this aims directly for MAXIMAL INDs, needing far fewer data
// tests than pure levelwise expansion when wide INDs exist; unlike Zigzag
// it is exact (no epsilon heuristic) given the unary and binary base.
// All validations stream through CompositeSetVerifier's sorted-set merges
// (out-of-core safe); independent table pairs dispatch onto an optional
// ThreadPool through RunBatch.

#pragma once

#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/ind/composite_verify.h"
#include "src/ind/nary_algorithm.h"
#include "src/ind/registry.h"

namespace spider {

/// \brief FIND2-style maximal n-ary IND discovery, registered as
/// "clique-nary". Reports the maximal satisfied INDs of arity >= 2;
/// `tests` counts the binary-edge and clique validations.
class CliqueNaryAlgorithm final : public NaryAlgorithm {
 public:
  /// Reads from `config`: `max_nary_arity` (cliques are truncated to this
  /// size; values < 2 select 16), `extractor` (nullptr = a scoped temp-dir
  /// extractor owned by the verifier), `pool` (independent table pairs run
  /// concurrently when set) and `block_skip`. Results and counters are
  /// identical with or without pool and skipping. `max_tests_per_pair` is
  /// a safety bound on clique validations per table pair.
  explicit CliqueNaryAlgorithm(const AlgorithmConfig& config = {},
                               int64_t max_tests_per_pair = 10000);

  /// `unary` must be the complete satisfied unary IND set over the catalog.
  using NaryAlgorithm::Run;
  [[nodiscard]]
  Result<NaryRunResult> Run(const Catalog& catalog,
                            const std::vector<Ind>& unary,
                            RunContext& context) override;

  std::string_view name() const override { return "clique-nary"; }

 private:
  AlgorithmConfig config_;
  int64_t max_tests_per_pair_;
  CompositeSetVerifier verifier_;
};

/// Enumerates all maximal cliques of an undirected graph given as an
/// adjacency matrix (Bron–Kerbosch with pivoting). Exposed for tests.
/// `adjacency[i][j]` must equal `adjacency[j][i]`; self-loops are ignored.
std::vector<std::vector<int>> MaximalCliques(
    const std::vector<std::vector<bool>>& adjacency);

/// Registers the "clique-nary" expansion with the registry.
void RegisterCliqueNaryAlgorithm(AlgorithmRegistry& registry);

}  // namespace spider
