// The improved single-pass algorithm (the paper's announced future work,
// Sec. 7: "in our current work we concentrate on improving the performance
// of the single-pass algorithm"; published by the same group as SPIDER,
// Bauckmann et al. 2007).
//
// Instead of the subject-observer object machinery of Sec. 3.2, all
// attribute cursors are merged through one min-heap keyed by their current
// value. For each distinct value v, the heap yields the exact set A(v) of
// attributes containing v; every still-open candidate d ⊆ r with d ∈ A(v)
// and r ∉ A(v) is refuted in one set intersection. A dependent stream that
// reaches EOF satisfies all its surviving candidates. Streams are closed as
// soon as no live candidate needs them, so I/O is at most — and usually far
// below — the single-pass bound of one read per value.

#pragma once

#include "src/ind/algorithm.h"
#include "src/ind/registry.h"

namespace spider {

/// \brief Heap-based single-pass IND verification: every value read at most
/// once, all candidates tested in parallel, no per-delivery bookkeeping.
class SpiderMergeAlgorithm final : public IndAlgorithm {
 public:
  /// Reads `config.extractor` (required), `config.block_skip` and
  /// `config.min_coverage`. σ-partial mode: a candidate is satisfied when
  /// at least that fraction of the DISTINCT dependent values occurs in the
  /// referenced set. 1.0 is exact IND semantics; lower values verify all
  /// partial-IND candidates in the same single pass (the per-candidate
  /// generalization that PartialIndFinder runs one scan at a time). With
  /// block_skip, pure-reference cursors gallop to the dependent frontier
  /// with SkipToAtLeast, hopping whole zonemap blocks; the satisfied set
  /// is identical either way.
  explicit SpiderMergeAlgorithm(const AlgorithmConfig& config);

  using IndAlgorithm::Run;
  [[nodiscard]]
  Result<RunResult<AttributePair>> Run(
      const Catalog& catalog, const std::vector<AttributeRef>& attributes,
      const std::vector<AttributePair>& candidates,
      RunContext& context) override;

  std::string_view name() const override { return "spider-merge"; }

 private:
  AlgorithmConfig config_;
};

/// Registers "spider-merge" (called once from AlgorithmRegistry::Global()).
void RegisterSpiderMergeAlgorithm(AlgorithmRegistry& registry);

}  // namespace spider
