// The single-pass database-external algorithm (paper Sec. 3.2,
// Algorithms 2 and 3).
//
// All sorted value sets are opened at once and every IND candidate is
// tested in parallel while each value is read exactly once. The
// implementation follows the paper's subject-observer design: referenced
// objects deliver their next value only when every attached dependent
// object has requested it; dependent objects drive the comparisons through
// the three lists currentWaiting / nextWaiting / next; a monitor activates
// deliveries through a FIFO queue. Theorem 3.1 (deadlock freedom) rests on
// the sorted order of the value sets; the engine CHECKs that every
// candidate is decided when the queue drains.
//
// Section 4.2 scalability: the number of open files, not memory, limits
// this algorithm. AlgorithmConfig::max_open_files enables the paper's
// proposed blockwise extension — candidates are partitioned into groups
// whose dependent + referenced file count fits the budget, and the engine
// runs once per group.

#pragma once

#include "src/ind/algorithm.h"
#include "src/ind/registry.h"

namespace spider {

/// \brief Single-pass IND verification: every value read once, all
/// candidates tested in parallel.
class SinglePassAlgorithm final : public IndAlgorithm {
 public:
  /// Reads `config.extractor` (required) and `config.max_open_files`: 0
  /// means unlimited (the paper's original single-group behaviour), values
  /// >= 2 enable the blockwise extension.
  explicit SinglePassAlgorithm(const AlgorithmConfig& config);

  using IndAlgorithm::Run;
  [[nodiscard]]
  Result<RunResult<AttributePair>> Run(
      const Catalog& catalog, const std::vector<AttributeRef>& attributes,
      const std::vector<AttributePair>& candidates,
      RunContext& context) override;

  std::string_view name() const override { return "single-pass"; }

 private:
  AlgorithmConfig config_;
};

/// Registers "single-pass" (called once from AlgorithmRegistry::Global()).
void RegisterSinglePassAlgorithm(AlgorithmRegistry& registry);

/// \brief Partitions candidates into blocks whose distinct dependent +
/// referenced attribute count does not exceed `max_open_files` (>= 2;
/// 0 = one block). Greedy in candidate order: a candidate whose files would
/// overflow the open block starts the next one. Ids must be below
/// `attribute_count`; linear in the candidates, whatever the budget.
std::vector<std::vector<AttributePair>> PartitionCandidatesByFileBudget(
    size_t attribute_count, const std::vector<AttributePair>& candidates,
    int max_open_files);

}  // namespace spider
