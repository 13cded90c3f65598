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
#include "src/common/thread_pool.h"
#include "src/ind/composite_verify.h"
#include "src/ind/nary_algorithm.h"

namespace spider {

class AlgorithmRegistry;

/// Options for LevelwiseNaryAlgorithm.
struct NaryDiscoveryOptions {
  /// Highest arity to expand to (>= 2). Level k is only attempted when
  /// level k-1 produced at least one IND.
  int max_arity = 4;
  /// Partial n-ary validation in [0, 1): a candidate counts as satisfied
  /// when its g3' error (CompositeSetVerifier::Error — the fraction of
  /// distinct dependent tuples with no referenced match) is <= the
  /// threshold. 0 = exact containment only.
  double error_threshold = 0;
  /// Sorted composite sets are materialized and cached here. Borrowed, may
  /// be shared (it is thread-safe); nullptr = a scoped temp-dir extractor
  /// owned by the verifier.
  ValueSetExtractor* extractor = nullptr;
  /// When set, each level's candidate batch is verified concurrently on
  /// this pool. Results and counters are identical to the serial run.
  /// Borrowed, not owned.
  ThreadPool* pool = nullptr;
  /// Zonemap block skipping on the verifier's referenced-side cursor
  /// (AlgorithmConfig::block_skip). Identical results either way.
  bool block_skip = true;
};

/// \brief Levelwise n-ary IND discovery seeded with satisfied unary INDs,
/// registered as "nary". Reports every satisfied IND of arity >= 2, not
/// only the maximal ones; each verified candidate counts once in `tests`
/// and in counters.candidates_tested.
class LevelwiseNaryAlgorithm final : public NaryAlgorithm {
 public:
  explicit LevelwiseNaryAlgorithm(NaryDiscoveryOptions options = {});

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
  NaryDiscoveryOptions options_;
  CompositeSetVerifier verifier_;
};

/// Registers the "nary" expansion with the registry (called by
/// AlgorithmRegistry::Global()).
void RegisterNaryAlgorithm(AlgorithmRegistry& registry);

}  // namespace spider
