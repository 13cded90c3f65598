// The Bell & Brockhausen strategy ([2] in the paper, 1995), implemented as
// a comparison baseline.
//
// Their published approach tests candidates sequentially with the SQL join
// statement (the paper reuses it as Fig. 2) and exploits two reductions:
//   * min/max pretests on the attribute value ranges, and
//   * the transitivity of inclusion — already-decided INDs exclude further
//     tests ("the tested (satisfied and not satisfied) INDs are used to
//     exclude further tests").
// This combines the building blocks that exist elsewhere in the library
// (engine hash join, ColumnStats, TransitivityPruner) into the historical
// algorithm, so benchmarks can compare the paper's approaches against its
// main predecessor.

#pragma once

#include "src/ind/algorithm.h"

namespace spider {

class AlgorithmRegistry;

/// Options for BellBrockhausenAlgorithm.
struct BellBrockhausenOptions {
  /// Apply the min/max range pretests before any SQL test.
  bool min_max_pretest = true;
  /// Use decided INDs to skip implied candidates.
  bool use_transitivity = true;
};

/// \brief Sequential join-based IND discovery with range and transitivity
/// pruning (Bell & Brockhausen).
class BellBrockhausenAlgorithm final : public IndAlgorithm {
 public:
  explicit BellBrockhausenAlgorithm(BellBrockhausenOptions options = {})
      : options_(options) {}

  using IndAlgorithm::Run;
  [[nodiscard]]
  Result<RunResult<AttributePair>> Run(
      const Catalog& catalog, const std::vector<AttributeRef>& attributes,
      const std::vector<AttributePair>& candidates,
      RunContext& context) override;

  std::string_view name() const override { return "bell-brockhausen"; }

 private:
  BellBrockhausenOptions options_;
};

/// Registers "bell-brockhausen" (called once from
/// AlgorithmRegistry::Global()).
void RegisterBellBrockhausenAlgorithm(AlgorithmRegistry& registry);

}  // namespace spider
