// The brute-force database-external algorithm (paper Sec. 3.1,
// Algorithm 1).
//
// Sorted-distinct value sets are extracted once per attribute (optimization
// #1 from Sec. 1.2) and each candidate is tested by a linear merge scan over
// the two files, stopping at the first dependent value with no partner
// (optimization #2). The algorithm keeps at most two files open and O(1)
// values in memory, which is why it "scales up to test IND candidates in
// very large databases" (Sec. 4.2).

#pragma once

#include <memory>

#include "src/extsort/value_set_extractor.h"
#include "src/ind/algorithm.h"
#include "src/ind/registry.h"
#include "src/ind/transitivity.h"

namespace spider {

/// Brute force's own knobs beyond AlgorithmConfig (the ablation benchmark
/// varies both).
struct BruteForceOptions {
  /// Stop a test at the first unmatched dependent value. Disabling this
  /// (full scans even after refutation) is the ablation for the paper's
  /// optimization #2.
  bool early_stop = true;

  /// When set, candidates whose outcome already follows from decided INDs
  /// are skipped (Sec. 4.1 transitivity pruning) and every decision is fed
  /// back into the pruner.
  TransitivityPruner* transitivity = nullptr;
};

/// \brief Brute-force IND verification: one merge scan per candidate.
class BruteForceAlgorithm final : public IndAlgorithm {
 public:
  /// Reads `config.extractor`, which is required.
  explicit BruteForceAlgorithm(const AlgorithmConfig& config,
                               BruteForceOptions options = {});

  using IndAlgorithm::Run;
  [[nodiscard]]
  Result<RunResult<AttributePair>> Run(
      const Catalog& catalog, const std::vector<AttributeRef>& attributes,
      const std::vector<AttributePair>& candidates,
      RunContext& context) override;

  std::string_view name() const override { return "brute-force"; }

 private:
  AlgorithmConfig config_;
  BruteForceOptions options_;
};

/// Registers "brute-force" (called once from AlgorithmRegistry::Global()).
void RegisterBruteForceAlgorithm(AlgorithmRegistry& registry);

/// \brief Tests a single candidate given two already-extracted sorted sets.
/// Exposed for unit tests and for the partial-IND checker. Returns true iff
/// dep ⊆ ref.
[[nodiscard]]
Result<bool> TestCandidateBruteForce(const SortedSetInfo& dep,
                                     const SortedSetInfo& ref,
                                     RunCounters* counters,
                                     bool early_stop = true);

}  // namespace spider
