// Foreign-key guessing from satisfied INDs, with gold-standard evaluation
// (paper Sec. 5).
//
// Every satisfied IND is a foreign-key guess. Against a schema with
// declared constraints (the paper's BioSQL/UniProt case) a guess is:
//   * a true positive when it matches a declared FK;
//   * "transitive" when it is not declared but lies in the transitive
//     closure of the declared FKs (the paper found 11 of these and does not
//     count them as errors);
//   * a false positive otherwise.
// A declared FK is "undetectable" when its referencing table holds no data
// (the paper's two FKs on empty tables).

#pragma once

#include <vector>

#include "src/ind/candidate.h"
#include "src/ind/candidate_generator.h"
#include "src/storage/catalog.h"

namespace spider {

/// Outcome of comparing discovered INDs against declared foreign keys.
struct FkEvaluation {
  /// Discovered INDs matching a declared FK.
  std::vector<Ind> true_positives;
  /// Discovered INDs implied by the transitive closure of declared FKs.
  std::vector<Ind> transitive;
  /// Discovered INDs that are neither declared nor implied.
  std::vector<Ind> false_positives;
  /// Declared FKs not discovered although the referencing table has data.
  std::vector<ForeignKey> missed;
  /// Declared FKs not discoverable because the referencing column is empty.
  std::vector<ForeignKey> undetectable;

  /// Recall over detectable declared FKs (1.0 when none are missed).
  double DetectableRecall() const;
};

/// \brief Evaluates discovered INDs against the catalog's declared foreign
/// keys (the gold standard).
FkEvaluation EvaluateForeignKeys(const Catalog& catalog,
                                 const std::vector<Ind>& satisfied_inds);

/// \brief Proposes foreign keys from satisfied INDs, one guess per
/// dependent attribute: when a dependent attribute is included in several
/// referenced attributes, the smallest referenced value set is the
/// tightest (most plausible) target. Distinct counts come from `graph`,
/// the attribute table of the run that found the INDs (an attribute
/// missing from it counts 0).
std::vector<ForeignKey> GuessForeignKeys(const CandidateGraph& graph,
                                         const std::vector<Ind>& satisfied_inds);

}  // namespace spider
