#include "src/ind/nary.h"

#include <algorithm>
#include <memory>
#include <set>

#include "src/common/logging.h"
#include "src/ind/registry.h"
#include "src/ind/run_batch.h"

namespace spider {

LevelwiseNaryAlgorithm::LevelwiseNaryAlgorithm(const AlgorithmConfig& config)
    : config_(config), verifier_(config.extractor, config.block_skip) {
  if (config_.max_nary_arity < 2) config_.max_nary_arity = 4;
  SPIDER_CHECK_GE(config_.error_threshold, 0);
  SPIDER_CHECK_LT(config_.error_threshold, 1.0);
}

Result<NaryRunResult> LevelwiseNaryAlgorithm::Run(
    const Catalog& catalog, const std::vector<Ind>& unary,
    RunContext& context) {
  NaryRunResult result;

  // Level 1: the unary INDs in NaryInd form (deduplicated, sorted).
  std::set<NaryInd> level_one;
  for (const Ind& ind : unary) {
    level_one.insert(NaryInd{{ind.dependent}, {ind.referenced}});
  }
  std::vector<NaryInd> previous(level_one.begin(), level_one.end());

  for (int arity = 2; arity <= config_.max_nary_arity && !previous.empty();
       ++arity) {
    const std::set<NaryInd> previous_set(previous.begin(), previous.end());

    // Apriori join: combine INDs sharing tables and the first k-2 pairs,
    // with the last dependent attribute strictly increasing and no
    // attribute repeated on either side.
    std::set<NaryInd> candidates;
    for (size_t a = 0; a < previous.size(); ++a) {
      for (size_t b = 0; b < previous.size(); ++b) {
        const NaryInd& left = previous[a];
        const NaryInd& right = previous[b];
        if (left.dependent[0].table != right.dependent[0].table ||
            left.referenced[0].table != right.referenced[0].table) {
          continue;
        }
        bool prefix_equal = true;
        for (int i = 0; i + 1 < arity - 1; ++i) {
          if (!(left.dependent[static_cast<size_t>(i)] ==
                right.dependent[static_cast<size_t>(i)]) ||
              !(left.referenced[static_cast<size_t>(i)] ==
                right.referenced[static_cast<size_t>(i)])) {
            prefix_equal = false;
            break;
          }
        }
        if (!prefix_equal) continue;
        const AttributeRef& left_dep = left.dependent.back();
        const AttributeRef& right_dep = right.dependent.back();
        if (!(left_dep < right_dep)) continue;

        NaryInd candidate = left;
        candidate.dependent.push_back(right_dep);
        candidate.referenced.push_back(right.referenced.back());

        // No repeated attribute on either side.
        std::set<AttributeRef> dep_set(candidate.dependent.begin(),
                                       candidate.dependent.end());
        std::set<AttributeRef> ref_set(candidate.referenced.begin(),
                                       candidate.referenced.end());
        if (static_cast<int>(dep_set.size()) != arity ||
            static_cast<int>(ref_set.size()) != arity) {
          continue;
        }
        // Downward closure: every subprojection must be satisfied.
        bool closed = true;
        for (const NaryInd& sub : Children(candidate)) {
          if (!previous_set.contains(sub)) {
            closed = false;
            break;
          }
        }
        if (closed) candidates.insert(std::move(candidate));
      }
    }

    // Verify the level's batch — concurrently when a pool is configured.
    const std::vector<NaryInd> batch(candidates.begin(), candidates.end());
    auto verify = [&](size_t i) -> Result<NaryRunResult> {
      NaryRunResult outcome;
      outcome.tests = 1;
      outcome.counters.candidates_tested = 1;
      // Exact containment, or g3' error up to the partial threshold.
      bool satisfied = false;
      if (config_.error_threshold > 0) {
        SPIDER_ASSIGN_OR_RETURN(
            const double error,
            verifier_.Error(catalog, batch[i], &outcome.counters));
        satisfied = error <= config_.error_threshold;
      } else {
        SPIDER_ASSIGN_OR_RETURN(
            satisfied, verifier_.VerifyIncluded(catalog, batch[i],
                                                &outcome.counters,
                                                /*early_stop=*/true));
      }
      if (satisfied) outcome.satisfied.push_back(batch[i]);
      context.Step();
      return outcome;
    };
    SPIDER_ASSIGN_OR_RETURN(
        NaryRunResult level,
        RunBatch<NaryInd>(config_.pool, batch.size(), context, verify));
    previous = level.satisfied;
    result.Append(std::move(level));
    if (!result.finished) break;
  }
  std::sort(result.satisfied.begin(), result.satisfied.end());
  return result;
}

void RegisterNaryAlgorithm(AlgorithmRegistry& registry) {
  AlgorithmCapabilities capabilities;
  capabilities.needs_extractor = true;
  // Partial here means the g3' error threshold (AlgorithmConfig::
  // error_threshold), not σ-coverage — the session still rejects a
  // σ-partial unary base under any expansion.
  capabilities.supports_partial = true;
  capabilities.summary =
      "levelwise (MIND-style) n-ary expansion: Apriori-join level k-1, "
      "verify by sorted composite-set merges (exact or g3'-partial)";
  Status status = registry.Register(
      "nary", capabilities, [](const AlgorithmConfig& config) {
        return std::make_unique<LevelwiseNaryAlgorithm>(config);
      });
  SPIDER_CHECK(status.ok()) << status.ToString();
}

}  // namespace spider
