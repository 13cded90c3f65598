// IND candidate generation with the paper's pretests.
//
// Candidates pair a (potentially) dependent attribute — any non-empty
// non-LOB column — with a (potentially) referenced attribute — any
// non-empty unique column (paper Sec. 2). Pretests then prune candidates
// before any full test runs:
//
//  * cardinality pretest (Sec. 2): |distinct(dep)| must not exceed
//    |distinct(ref)|;
//  * max-value pretest (Sec. 4.1): max(dep) must not exceed max(ref);
//  * min-value pretest (Bell & Brockhausen [2]; off by default to match the
//    paper's configuration): min(dep) must not be below min(ref);
//  * type pretest (off by default — "not applicable in the life science
//    domain, because often even attributes containing solely integers are
//    represented as string");
//  * sampling pretest (the paper's future work, Sec. 4.1 — implemented):
//    membership of a few random dependent values refutes most candidates
//    cheaply.

#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "src/common/counters.h"
#include "src/common/result.h"
#include "src/ind/candidate.h"
#include "src/storage/catalog.h"
#include "src/storage/column_stats.h"

namespace spider {

/// How referenced-attribute uniqueness is established.
enum class UniquenessSource {
  /// Only columns with a declared UNIQUE / PRIMARY KEY constraint.
  kDeclared,
  /// Only columns verified unique by scanning the data (the undocumented-
  /// schema case that motivates the paper: no constraints exist).
  kVerified,
  /// Either of the above (default).
  kEither,
};

/// Options controlling generation and pretests.
struct CandidateGeneratorOptions {
  UniquenessSource uniqueness_source = UniquenessSource::kEither;

  /// |distinct(dep)| <= |distinct(ref)| (paper Sec. 2; always sound).
  bool cardinality_pretest = true;

  /// max(dep) <= max(ref) on canonical strings (paper Sec. 4.1).
  bool max_value_pretest = false;

  /// min(dep) >= min(ref) (from [2]; sound, off by default).
  bool min_value_pretest = false;

  /// Require equal column types (unsound in the paper's domain; off).
  bool type_pretest = false;

  /// Sample `sample_size` random dependent values and refute on any miss
  /// (sound pruning: a missing value definitively refutes).
  bool sampling_pretest = false;
  int sample_size = 16;
};

/// How many raw pairs the pretests saw and how many each one eliminated.
struct PretestCounts {
  /// Number of raw dep×ref pairs before any pretest (self-pairs excluded).
  int64_t raw_pair_count = 0;
  /// Pairs eliminated by each pretest.
  int64_t pruned_by_cardinality = 0;
  int64_t pruned_by_max_value = 0;
  int64_t pruned_by_min_value = 0;
  int64_t pruned_by_type = 0;
  int64_t pruned_by_sampling = 0;

  int64_t total_pruned() const {
    return pruned_by_cardinality + pruned_by_max_value + pruned_by_min_value +
           pruned_by_type + pruned_by_sampling;
  }
};

/// Result of candidate generation by attribute id: one attribute table and
/// the surviving candidates as id pairs. The session runs on this form.
struct CandidateGraph : PretestCounts {
  /// Every attribute the generator measured, in catalog enumeration order
  /// (tables, then columns); an attribute's index is its AttributeId.
  std::vector<AttributeRef> attributes;
  /// Column statistics of attributes[id], computed along the way.
  std::vector<ColumnStats> stats;
  /// Surviving candidates, sorted by (dependent, referenced) id: dependent-
  /// major in catalog order.
  std::vector<AttributePair> candidates;
};

/// Result of candidate generation by name (CandidateGenerator::Generate),
/// materialized from the CandidateGraph for callers that want strings.
struct CandidateSet : PretestCounts {
  /// Surviving candidates, in deterministic (attribute) order.
  std::vector<IndCandidate> candidates;
  /// Column statistics computed along the way, reusable by callers.
  std::map<AttributeRef, ColumnStats> stats;
};

/// \brief Generates IND candidates for a catalog.
class CandidateGenerator {
 public:
  explicit CandidateGenerator(CandidateGeneratorOptions options = {})
      : options_(options) {}

  /// Scans the catalog once for statistics, then produces all surviving
  /// dep ⊆ ref candidates by attribute id.
  [[nodiscard]]
  Result<CandidateGraph> GenerateGraph(const Catalog& catalog) const;

  /// GenerateGraph with every candidate and statistic keyed by name.
  [[nodiscard]]
  Result<CandidateSet> Generate(const Catalog& catalog) const;

 private:
  CandidateGeneratorOptions options_;
};

}  // namespace spider
