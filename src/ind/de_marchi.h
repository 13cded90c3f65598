// The De Marchi et al. unary IND algorithm ([10] in the paper, EDBT 2002),
// implemented as a comparison baseline.
//
// Preprocessing builds an inverted index: for every distinct value, the set
// of attributes containing it. A candidate d ⊆ r is then satisfied iff r
// appears in the intersection of the attribute sets of all of d's values —
// computed by one pass over d's values with incremental intersection and
// early exit. The paper's criticism ("a major drawback of this method is
// its huge preprocessing requirement") is visible in the memory counter:
// the index holds every distinct value of every candidate attribute at
// once, where the sort-based approaches stream them.

#pragma once

#include "src/ind/algorithm.h"

namespace spider {

class AlgorithmRegistry;

/// \brief Inverted-index unary IND discovery (De Marchi et al.).
class DeMarchiAlgorithm final : public IndAlgorithm {
 public:
  using IndAlgorithm::Run;
  [[nodiscard]]
  Result<IdRunResult> Run(const Catalog& catalog,
                          const std::vector<AttributeRef>& attributes,
                          const std::vector<AttributePair>& candidates,
                          RunContext& context) override;

  std::string_view name() const override { return "de-marchi"; }

  /// Peak size of the inverted index (distinct value entries) in the last
  /// Run() — the preprocessing footprint the paper criticizes.
  int64_t last_index_entries() const { return last_index_entries_; }

 private:
  int64_t last_index_entries_ = 0;
};

/// Registers "de-marchi" (called once from AlgorithmRegistry::Global()).
void RegisterDeMarchiAlgorithm(AlgorithmRegistry& registry);

}  // namespace spider
