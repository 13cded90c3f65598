// N-ary (multivalued) inclusion dependency discovery.
//
// The paper discovers unary INDs and argues (Sec. 6) that its efficient
// unary algorithms "will also be beneficial for finding multivalued INDs";
// the related work ([10] De Marchi et al., [8] Koeller & Rundensteiner)
// derives higher-arity INDs levelwise from lower ones. This module
// implements that levelwise (MIND-style) expansion on top of any unary
// result:
//
//   level 1  = satisfied unary INDs (from BruteForce / SinglePass / ...);
//   level k  = Apriori-joined candidates from level k-1, kept only when
//              every (k-1)-ary subprojection is satisfied, then verified
//              against the data.
//
// An n-ary IND R[X1..Xk] ⊆ S[Y1..Yk] holds when every k-tuple of non-NULL
// dependent values appears among the referenced k-tuples (tuples with any
// NULL component are skipped, matching SQL's MATCH SIMPLE foreign keys).
// Verification streams: each side is materialized once as a sorted-distinct
// composite-tuple set (CompositeSetVerifier) and candidates are decided by
// lockstep merges, so discovery works unchanged over out-of-core (disk
// backend) catalogs. A level's candidate batch dispatches onto an optional
// ThreadPool through RunBatch, parallelizing validation the way the
// session parallelizes unary SPIDER.

#pragma once

#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/ind/composite_verify.h"
#include "src/ind/nary_algorithm.h"
#include "src/ind/registry.h"

namespace spider {

/// \brief Levelwise n-ary IND discovery seeded with satisfied unary INDs,
/// registered as "nary". Reports every satisfied IND of arity >= 2, not
/// only the maximal ones; each verified candidate counts once in `tests`
/// and in counters.candidates_tested.
class LevelwiseNaryAlgorithm final : public NaryAlgorithm {
 public:
  /// Reads from `config`:
  ///  * `max_nary_arity`: highest arity to expand to; values < 2 select 4.
  ///    Level k is only attempted when level k-1 produced an IND.
  ///  * `error_threshold`: partial n-ary validation in [0, 1) — a
  ///    candidate counts as satisfied when its g3' error
  ///    (CompositeSetVerifier::Error, the fraction of distinct dependent
  ///    tuples with no referenced match) is <= the threshold; 0 = exact.
  ///  * `extractor`: where sorted composite sets are cached; nullptr = a
  ///    scoped temp-dir extractor owned by the verifier.
  ///  * `pool`: verifies each level's batch concurrently when set.
  ///  * `block_skip`: zonemap skipping on the referenced-side cursor.
  /// Results and counters are identical with or without pool and skipping.
  explicit LevelwiseNaryAlgorithm(const AlgorithmConfig& config = {});

  /// `unary` must be the complete set of satisfied unary INDs over the
  /// catalog (an incomplete seed only shrinks the discovered set — the
  /// levelwise property guarantees no false positives either way).
  using NaryAlgorithm::Run;
  [[nodiscard]]
  Result<NaryRunResult> Run(const Catalog& catalog,
                            const std::vector<Ind>& unary,
                            RunContext& context) override;

  std::string_view name() const override { return "nary"; }

 private:
  AlgorithmConfig config_;
  CompositeSetVerifier verifier_;
};

/// Registers the "nary" expansion with the registry (called by
/// AlgorithmRegistry::Global()).
void RegisterNaryAlgorithm(AlgorithmRegistry& registry);

}  // namespace spider
